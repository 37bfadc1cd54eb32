"""Border-array builders: goldens, long order-isomorphic texts, validation.
Acceptance criterion 4 checks both builders against the oracle."""

import copy
import functools
import pickle
import random

import pytest

from conftest import EXAMPLE_TEXT, KINDS, TABLE1_BORDER, TABLE2_BORDER, acceptance_universe
from helpers import borders_from_z, fibonacci, periodic_text, z_array
from quasicover.border import BorderBuilder, border_array, border_array_generic
from quasicover.covers import validate_border_array
from quasicover.oracle import brute_border_array
from quasicover.scer import ScerKind, TokenSeq, equiv


class TestGolden:
    def test_identity_example(self):
        assert border_array(EXAMPLE_TEXT, ScerKind.IDENTITY) == TABLE1_BORDER

    def test_parameterized_example(self):
        assert border_array(EXAMPLE_TEXT, ScerKind.PARAMETERIZED) == TABLE2_BORDER

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_character(self, kind):
        assert border_array((7,), kind) == [0]

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty(self, kind):
        assert border_array((), kind) == []
        assert border_array_generic((), kind) == []

    def test_generic_order_iso_example(self):
        # adcbc with a<b<c<d; expected values from the brute-force oracle
        t = (0, 3, 2, 1, 2)
        assert border_array_generic(t, ScerKind.ORDER_ISO) == [0, 1, 1, 1, 2]
        assert brute_border_array(t, ScerKind.ORDER_ISO) == [0, 1, 1, 1, 2]

    def test_generic_unary(self):
        assert border_array_generic((0, 0, 0, 0), ScerKind.IDENTITY) == [0, 1, 2, 3]

    def test_generic_matches_fast_on_example(self):
        assert border_array_generic(EXAMPLE_TEXT, ScerKind.IDENTITY) == TABLE1_BORDER


class TestOracleEquivalence:
    def test_order_iso_ties_and_large_alphabets(self):
        # Beyond the exhaustive universe: n <= 300 over 2..n symbols, drawn
        # with repeats, and copies of a tied block under increasing maps,
        # which give long order-isomorphic borders that identity lacks.
        rng = random.Random(2026)
        texts = []
        for _ in range(150):
            n = rng.randint(2, 300)
            pool = rng.sample(range(4 * n), rng.randint(2, n))
            texts.append([rng.choice(pool) for _ in range(n)])
        for _ in range(50):
            n = rng.randint(2, 300)
            block = [rng.randrange(rng.randint(2, 12)) for _ in range(rng.randint(1, 12))]
            s = []
            while len(s) < n:
                scale, shift = rng.randint(1, 3), rng.randrange(50)
                s += [scale * v + shift for v in block]
            texts.append(s[:n])
        for s in texts:
            assert border_array(s, ScerKind.ORDER_ISO) == border_array_generic(
                s, ScerKind.ORDER_ISO), s


class TestBuilder:
    def test_streaming_matches_batch(self):
        for kind in KINDS:
            builder = BorderBuilder(kind)
            partial = [builder.push(t) for t in EXAMPLE_TEXT]
            assert partial == border_array(EXAMPLE_TEXT, kind)

    def test_negative_tokens_rejected(self):
        for kind in KINDS:
            with pytest.raises(ValueError):
                border_array([-1, -2], kind)
        for kind in KINDS:
            builder = BorderBuilder(kind)
            builder.push(0)
            with pytest.raises(ValueError):
                builder.push(-1)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [0.5, "a", None, 1.0])
    def test_non_integer_tokens_rejected(self, kind, bad):
        # 1.0 equals a token seen before, which each push must still reject
        texts = {0.5: [[0.5, 1.5, 0.5]], 1.0: [[1, 1.0], [1, 2, 1.0]]}.get(bad, [[bad]])
        for text in texts:
            with pytest.raises(ValueError):
                border_array(text, kind)
            with pytest.raises(ValueError):  # only bytes and TokenSeq skip the check
                border_array(tuple(text), kind)
        builder = BorderBuilder(kind)
        builder.push(1)
        for _ in range(2):  # a rejected token is never stored, so it fails again
            with pytest.raises(ValueError):
                builder.push(bad)
        assert builder.values == [0]
        assert builder.push(1) == 1

    def test_order_iso_rejects_non_integer_tokens(self):
        with pytest.raises(ValueError):
            border_array([0.5, 1.5], ScerKind.ORDER_ISO)
        builder = BorderBuilder(ScerKind.ORDER_ISO)
        builder.push(3)
        for bad in (2.5, -1, -1):
            with pytest.raises(ValueError):
                builder.push(bad)
        assert builder.values == [0]
        assert builder.push(2) == 1

    def test_order_iso_builder_matches_generic(self):
        rng = random.Random(8)
        texts = [EXAMPLE_TEXT, (0, 3, 2, 1, 2)]
        texts += [tuple(rng.randrange(4) for _ in range(rng.randrange(1, 60))) for _ in range(50)]
        for s in texts:
            builder = BorderBuilder(ScerKind.ORDER_ISO)
            pushed = [builder.push(t) for t in s]
            assert pushed == builder.values == border_array_generic(s, ScerKind.ORDER_ISO), s

    @pytest.mark.parametrize("kind", KINDS)
    def test_copy_continues(self, kind):
        builder = BorderBuilder(kind)
        builder.extend(EXAMPLE_TEXT[:7])
        twin = copy.deepcopy(builder)
        assert type(twin) is type(builder)
        builder.extend(EXAMPLE_TEXT[7:])
        assert twin.extend(EXAMPLE_TEXT[7:]) == builder.values == border_array(EXAMPLE_TEXT, kind)
        assert twin.link_follows == builder.link_follows

    @pytest.mark.parametrize("kind", KINDS + tuple(k.value for k in KINDS))
    def test_one_class_pickles_and_continues(self, kind):
        assert type(BorderBuilder(kind)) is BorderBuilder
        rng = random.Random(37)
        text = [rng.randrange(5) for _ in range(200)]
        builder = BorderBuilder(kind)
        builder.extend(text[:37])
        twin = pickle.loads(pickle.dumps(builder))
        assert type(twin) is BorderBuilder
        builder.extend(text[37:])
        twin.extend(text[37:])
        whole = BorderBuilder(kind)
        whole.extend(text)
        assert vars(twin) == vars(builder) == vars(whole)

    @pytest.mark.parametrize("kind", KINDS)
    def test_amortized_descents(self, kind):
        rng = random.Random(12345)
        text = [rng.randrange(2) for _ in range(20000)]
        builder = BorderBuilder(kind)
        builder.extend(text)
        assert builder.link_follows <= 2 * len(text)

    @staticmethod
    def recount_link_follows(text, border, kind):
        """The failure-link steps of the KMP descent, recounted from the
        finished border array: at each position, from Border[i-1] down the
        border chain while T[:b+1] is not equivalent to T[i-b:i+1]."""
        steps = 0
        for i in range(1, len(text)):
            b = border[i - 1]
            while b > 0 and not equiv(text[:b + 1], text[i - b:i + 1], kind):
                b = border[b - 1]
                steps += 1
        return steps

    @pytest.mark.parametrize("kind", KINDS)
    def test_link_follows_exact(self, kind):
        for s in acceptance_universe():
            whole = BorderBuilder(kind)
            whole.extend(s)
            k = sum(s) % (len(s) + 1)
            chunked = BorderBuilder(kind)
            chunked.extend(s[:k])
            chunked.extend(s[k:])
            assert chunked.values == whole.values
            steps = self.recount_link_follows(s, whole.values, kind)
            assert whole.link_follows == chunked.link_follows == steps, s


def gallop_text(shape):
    """Texts of 10^4 tokens below 256: long runs of matches, and none."""
    rng = random.Random(shape)
    n = 10_000
    if shape == "periodic":
        return periodic_text(rng, n)
    if shape == "fibonacci":
        return fibonacci(n)
    if shape == "a5000ba5000":
        return [0] * 5000 + [1] + [0] * 5000
    return [rng.randrange(int(shape[len("random"):])) for _ in range(n)]


GALLOP_SHAPES = ["periodic", "fibonacci", "a5000ba5000", "random2", "random256"]


@functools.lru_cache(maxsize=None)
def gallop_case(shape):
    """The text, its border array from the Z-array, the push build, which
    never gallops, and link_follows recounted."""
    text = gallop_text(shape)
    pushed = BorderBuilder(ScerKind.IDENTITY)
    for t in text:
        pushed.push(t)
    z_border = borders_from_z(z_array(text))
    steps = TestBuilder.recount_link_follows(tuple(text), z_border, ScerKind.IDENTITY)
    return text, z_border, pushed, steps


class TestGallop:
    """Identity's extend gallops over runs of matches; push never does."""

    def check(self, builder, z_border, pushed, steps):
        assert builder.values == z_border
        assert builder.values == pushed.values
        assert builder.link_follows == pushed.link_follows == steps

    @pytest.mark.parametrize("shape", GALLOP_SHAPES)
    def test_push_build(self, shape):
        text, z_border, pushed, steps = gallop_case(shape)
        self.check(pushed, z_border, pushed, steps)

    @pytest.mark.parametrize("form", [bytes, TokenSeq, list])
    @pytest.mark.parametrize("shape", GALLOP_SHAPES)
    def test_whole_chunk(self, shape, form):
        text, *refs = gallop_case(shape)
        builder = BorderBuilder(ScerKind.IDENTITY)
        assert builder.extend(form(text)) is builder.values
        self.check(builder, *refs)

    @pytest.mark.parametrize("shape", GALLOP_SHAPES)
    def test_splits_inside_runs(self, shape):
        # cuts 40 positions into a run, where a gallop block is under way,
        # and anywhere else
        text, z_border, pushed, steps = gallop_case(shape)
        rng = random.Random(shape)
        in_runs = [k for k in range(41, len(text)) if z_border[k - 1] - z_border[k - 41] == 40]
        cuts = sorted(set(rng.sample(in_runs, min(30, len(in_runs)))
                          + rng.sample(range(1, len(text)), 30)))
        builder = BorderBuilder(ScerKind.IDENTITY)
        for lo, hi in zip([0] + cuts, cuts + [len(text)]):
            builder.extend(rng.choice([bytes, TokenSeq, list])(text[lo:hi]))
            assert builder.values == z_border[:hi]
        self.check(builder, z_border, pushed, steps)

    def test_bad_token_inside_a_run(self):
        text, z_border, pushed, steps = gallop_case("periodic")
        k = next(k for k in range(41, len(text)) if z_border[k - 1] - z_border[k - 41] == 40)
        prefix = BorderBuilder(ScerKind.IDENTITY)
        for t in text[:k]:
            prefix.push(t)
        builder = BorderBuilder(ScerKind.IDENTITY)
        with pytest.raises(ValueError, match="got -1"):
            builder.extend(text[:k] + [-1] + text[k:])
        assert builder.values == z_border[:k]
        assert len(builder._codes) == k
        assert builder.link_follows == prefix.link_follows
        builder.extend(text[k:])
        self.check(builder, z_border, pushed, steps)

    def test_gate(self):
        # one token object throughout: a list slice compare tests identity
        # first and never calls __ne__, so only the 8 single-position tests
        # before the gallop count
        class Counted(int):
            tests = 0

            def __ne__(self, other):
                Counted.tests += 1
                return int.__ne__(self, other)

        builder = BorderBuilder(ScerKind.IDENTITY)
        builder.extend([Counted(5)] * 1000)
        assert builder.values == list(range(1000))
        assert Counted.tests == 8


class TestValidation:
    def test_accepts_valid(self):
        validate_border_array(TABLE1_BORDER)
        validate_border_array([])

    def test_rejects_value_not_proper(self):
        with pytest.raises(ValueError):
            validate_border_array([1])
        with pytest.raises(ValueError):
            validate_border_array([0, 2])

    def test_rejects_step_violation(self):
        with pytest.raises(ValueError):
            validate_border_array([0, 0, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_border_array([0, -1])

    @pytest.mark.parametrize("values", [[0.0], [0, 0.5], [0, 1.0]])
    def test_rejects_non_int(self, values):
        # the cover arrays' own check, so what their extends reject fails here
        with pytest.raises(ValueError):
            validate_border_array(values)

