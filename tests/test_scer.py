"""Equivalence predicates and canonical encodings."""

from collections import defaultdict
from decimal import Decimal
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import KINDS, strings
from quasicover.border import BorderBuilder, border_array, border_array_generic
from quasicover.scer import ScerKind, TokenSeq, equiv, prev_encode, rank_signature


class TestEquiv:
    def test_empty_strings(self):
        for kind in KINDS:
            assert equiv((), (), kind)

    def test_order_iso_example(self):
        # acb vs adc with a<b<c<d: same relative order
        assert equiv((0, 2, 1), (0, 3, 2), ScerKind.ORDER_ISO)

    def test_parameterized_swap(self):
        assert equiv((0, 1), (1, 0), ScerKind.PARAMETERIZED)
        assert not equiv((0, 1), (1, 0), ScerKind.IDENTITY)

    def test_length_mismatch_is_false(self):
        for kind in KINDS:
            assert not equiv((0,), (0, 0), kind)

    def test_parameterized_needs_bijection(self):
        # aa -> ab is a function but not injective on the image side
        assert not equiv((0, 0), (0, 1), ScerKind.PARAMETERIZED)
        assert not equiv((0, 1), (0, 0), ScerKind.PARAMETERIZED)

    def test_order_iso_tie_patterns_must_match(self):
        assert equiv((7, 7), (3, 3), ScerKind.ORDER_ISO)
        assert not equiv((7, 7), (3, 4), ScerKind.ORDER_ISO)


class TestEncodings:
    @pytest.mark.parametrize(
        "x,expected",
        [((5, 5, 7), (0, 1, 0)), ((), ()), ((0, 1, 0, 1), (0, 0, 2, 2))],
    )
    def test_prev_encode(self, x, expected):
        assert prev_encode(x) == expected

    @pytest.mark.parametrize(
        "x,expected",
        [((0, 2, 1), (0, 2, 1)), ((5, 3, 5), (1, 0, 1)), ((7, 7), (0, 0))],
    )
    def test_rank_signature(self, x, expected):
        assert rank_signature(x) == expected

    def test_encodings_of_empty(self):
        assert prev_encode(()) == ()
        assert rank_signature(()) == ()


class TestTokenSeq:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TokenSeq([-1])

    def test_from_bytes(self):
        assert TokenSeq.from_bytes(b"ab") == (97, 98)
        assert TokenSeq.from_bytes(bytearray(b"ab")) == (97, 98)
        # only bytes-like input skips the token check
        assert TokenSeq.from_bytes([97, 98]) == (97, 98)
        for bad in ([-1], [0.5]):
            with pytest.raises(ValueError):
                TokenSeq.from_bytes(bad)

    @staticmethod
    def verdict(build, token):
        """None if build([token]) accepts the token, else the type it raises:
        a warning counts, as ~True warns from Python 3.12."""
        try:
            build([token])
        except (ValueError, Warning) as exc:
            return type(exc)
        return None

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_tokens_as_border_builder(self, kind):
        def extend(tokens):
            return BorderBuilder(kind).extend(tokens)

        for token in (-1, 0, 2**70, True, 1.0, 0.5, "1", None, Fraction(1), Decimal(1)):
            assert self.verdict(TokenSeq, token) == self.verdict(extend, token), (kind, token)
        assert self.verdict(TokenSeq, 0.5) is ValueError

    @pytest.mark.parametrize("kind", KINDS)
    def test_numpy_int_tokens_accepted(self, kind):
        np = pytest.importorskip("numpy")
        text = [0, 1, 0, 0, 1, 0, 1, 0]
        tokens = list(np.array(text, dtype=np.int64))
        assert self.verdict(TokenSeq, tokens[1]) is None
        assert border_array_generic(tokens, kind) == border_array(tokens, kind) == border_array(
            text, kind)


def classes(max_len, alphabet_size, kind):
    """Group all strings by their equivalence class."""
    canon = {
        ScerKind.IDENTITY: tuple,
        ScerKind.PARAMETERIZED: prev_encode,
        ScerKind.ORDER_ISO: rank_signature,
    }[kind]
    groups = defaultdict(list)
    for s in strings(max_len, alphabet_size):
        groups[(len(s), canon(s))].append(s)
    return groups


class TestScerLaws:
    """Exhaustive checks over strings of length <= 8 on <= 3 letters.

    The predicate must be a genuine substring consistent equivalence:
    an equivalence relation that implies equal length and is closed
    under taking equal-index substrings.
    """

    # pairwise parts capped at length 6 to keep the run quick
    MAX_LEN_PAIRS = 6

    @pytest.mark.parametrize("kind", KINDS)
    def test_substring_closure(self, kind):
        for group in classes(self.MAX_LEN_PAIRS, 3, kind).values():
            for x, y in combinations_with_replacement(group, 2):
                assert equiv(x, y, kind)
                for i in range(len(x)):
                    for j in range(i, len(x)):
                        assert equiv(x[i : j + 1], y[i : j + 1], kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_cross_class_pairs_not_equivalent(self, kind):
        groups = classes(self.MAX_LEN_PAIRS, 3, kind)
        reps = [g[0] for g in groups.values()]
        for x, y in combinations_with_replacement(reps, 2):
            if x is not y:
                assert not equiv(x, y, kind)

    def test_parameterized_matches_prev_encoding(self):
        for x in strings(self.MAX_LEN_PAIRS, 3):
            for y in strings(len(x), 3, min_len=len(x)):
                assert equiv(x, y, ScerKind.PARAMETERIZED) == (prev_encode(x) == prev_encode(y))

    def test_order_iso_matches_pairwise_definition(self):
        def pairwise(x, y):
            return len(x) == len(y) and all(
                (x[i] < x[j]) == (y[i] < y[j]) and (x[i] == x[j]) == (y[i] == y[j])
                for i in range(len(x))
                for j in range(len(x))
            )

        for x in strings(self.MAX_LEN_PAIRS, 2):
            for y in strings(len(x), 3, min_len=len(x)):
                assert equiv(x, y, ScerKind.ORDER_ISO) == pairwise(x, y)

    @pytest.mark.parametrize("kind", KINDS)
    def test_reflexive(self, kind):
        for s in strings(self.MAX_LEN_PAIRS, 3):
            assert equiv(s, s, kind)


class TestValueStrings:
    # the three relations give three different border arrays here
    TEXT = (0, 1, 0, 2, 0, 1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_value_string_is_the_member(self, kind):
        assert BorderBuilder(kind.value).kind is kind
        assert border_array(self.TEXT, kind.value) == border_array(self.TEXT, kind)
        assert border_array_generic(self.TEXT, kind.value) == border_array_generic(self.TEXT, kind)
        for x in strings(4, 3):
            for y in strings(len(x), 3, min_len=len(x)):
                assert equiv(x, y, kind.value) == equiv(x, y, kind), (x, y)

    def test_relations_differ_on_text(self):
        assert len({tuple(border_array(self.TEXT, kind)) for kind in KINDS}) == 3

    def test_parse_is_the_constructor(self):
        for kind in KINDS:
            assert ScerKind.parse(kind.value) is ScerKind(kind.value) is kind
        with pytest.raises(ValueError, match="unknown equivalence relation 'nope'"):
            ScerKind.parse("nope")

    @pytest.mark.parametrize("call", [
        lambda t: BorderBuilder("nope"),
        lambda t: border_array(t, "nope"),
        lambda t: border_array_generic(t, "nope"),
        lambda t: equiv(t, t, "nope"),
        lambda t: equiv(t, t[1:], "nope"),
    ], ids=["BorderBuilder", "border_array", "border_array_generic", "equiv", "equiv_unequal_lengths"])
    def test_unknown_relation_raises(self, call):
        with pytest.raises(ValueError, match="nope"):
            call(self.TEXT)
