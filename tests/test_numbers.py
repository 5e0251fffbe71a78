from fractions import Fraction

import numpy as np
import pytest

from postman.errors import ParseError
from postman.numbers import as_exact, format_number, normalize, parse_number, to_jsonable


class TestAsExact:
    def test_int_passthrough(self):
        assert as_exact(7) == 7 and isinstance(as_exact(7), int)

    def test_numpy_scalars(self):
        assert as_exact(np.int64(5)) == 5 and type(as_exact(np.int64(5))) is int
        assert as_exact(np.float64(0.2)) == Fraction(1, 5)

    def test_float_decimal_reading(self):
        assert as_exact(1.5) == Fraction(3, 2)
        assert as_exact(0.1) == Fraction(1, 10)

    def test_integral_fraction_collapses(self):
        out = as_exact(Fraction(6, 3))
        assert out == 2 and isinstance(out, int)

    def test_string(self):
        assert as_exact("7/2") == Fraction(7, 2)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_exact(True)
        with pytest.raises(TypeError):
            format_number(False)


class TestFormats:
    @pytest.mark.parametrize("value,text", [(5, "5"), (Fraction(7, 2), "7/2"), (-3, "-3")])
    def test_round_trip(self, value, text):
        assert format_number(value) == text
        assert parse_number(text) == value

    def test_non_int_integers(self):
        assert format_number(np.int64(-4)) == "-4"
        assert format_number(Fraction(8, 4)) == "2"

    def test_decimal_string(self):
        assert parse_number("1.25") == Fraction(5, 4)

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_number("zap", line=12)
        assert "12" in str(err.value)

    def test_jsonable(self):
        assert to_jsonable(4) == 4
        assert to_jsonable(Fraction(1, 3)) == "1/3"
        assert to_jsonable(Fraction(8, 4)) == 2

    def test_normalize(self):
        assert normalize(Fraction(4, 2)) == 2
        assert normalize(Fraction(1, 2)) == Fraction(1, 2)
