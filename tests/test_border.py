"""Border-array builders: goldens, oracle equivalence, step property."""

import pytest

from conftest import EXAMPLE_TEXT, KINDS, TABLE1_BORDER, TABLE2_BORDER, strings
from quasicover.border import (
    BorderBuilder,
    border_array,
    border_array_generic,
    read_border_file,
    validate_border_array,
)
from quasicover.oracle import brute_border_array
from quasicover.scer import ScerKind


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
    @pytest.mark.parametrize("kind", KINDS)
    def test_small_universe(self, kind):
        for s in strings(8, 2):
            expected = brute_border_array(s, kind)
            assert border_array(s, kind) == expected
            assert border_array_generic(s, kind) == expected
        for s in strings(6, 3):
            expected = brute_border_array(s, kind)
            assert border_array(s, kind) == expected
            assert border_array_generic(s, kind) == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_step_property(self, kind):
        for s in strings(7, 3):
            values = border_array(s, kind)
            validate_border_array(values)  # raises on violation


class TestBuilder:
    def test_streaming_matches_batch(self):
        for kind in (ScerKind.IDENTITY, ScerKind.PARAMETERIZED):
            builder = BorderBuilder(kind)
            partial = [builder.push(t) for t in EXAMPLE_TEXT]
            assert partial == border_array(EXAMPLE_TEXT, kind)

    def test_negative_tokens_rejected(self):
        for kind in KINDS:
            with pytest.raises(ValueError):
                border_array([-1, -2], kind)
        for kind in (ScerKind.IDENTITY, ScerKind.PARAMETERIZED):
            builder = BorderBuilder(kind)
            builder.push(0)
            with pytest.raises(ValueError):
                builder.push(-1)

    def test_no_online_builder_for_order_iso(self):
        with pytest.raises(ValueError):
            BorderBuilder(ScerKind.ORDER_ISO)

    @pytest.mark.parametrize("kind", [ScerKind.IDENTITY, ScerKind.PARAMETERIZED])
    def test_amortized_descents(self, kind):
        import random

        rng = random.Random(12345)
        text = [rng.randrange(2) for _ in range(20000)]
        builder = BorderBuilder(kind)
        builder.extend(text)
        assert builder.link_follows <= 2 * len(text)


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


class TestBorderFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "border.txt"
        path.write_text("".join(f"{v}\n" for v in TABLE1_BORDER))
        assert read_border_file(str(path)) == TABLE1_BORDER

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "border.txt"
        path.write_text("0\nx\n")
        with pytest.raises(ValueError):
            read_border_file(str(path))

    def test_rejects_malformed_array(self, tmp_path):
        path = tmp_path / "border.txt"
        path.write_text("0\n2\n")
        with pytest.raises(ValueError):
            read_border_file(str(path))
