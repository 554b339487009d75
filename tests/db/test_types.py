"""SQL type system: type names and coercion."""

import datetime
from decimal import Decimal

import pytest

from repro.db.types import coerce_value, validate_type_name
from repro.errors import SchemaError


class TestValidateTypeName:
    def test_accepts_known_types_case_insensitively(self):
        assert validate_type_name("bigint") == "BIGINT"
        assert validate_type_name("Varchar") == "VARCHAR"

    def test_rejects_unknown_type(self):
        with pytest.raises(SchemaError):
            validate_type_name("BLOB")


class TestCoerceValue:
    def test_none_passes_through(self):
        assert coerce_value("INTEGER", None) is None

    def test_int_from_string(self):
        assert coerce_value("BIGINT", "42") == 42

    def test_bool_not_an_integer(self):
        with pytest.raises(SchemaError):
            coerce_value("INTEGER", True)

    def test_float_to_decimal_rounds(self):
        value = coerce_value("DECIMAL", 19.90000001)
        assert isinstance(value, Decimal)
        assert value == Decimal("19.9")

    def test_decimal_identity(self):
        d = Decimal("7.25")
        assert coerce_value("DECIMAL", d) is d

    def test_date_from_iso_string(self):
        assert coerce_value("DATE", "2007-03-09") == datetime.date(2007, 3, 9)

    def test_date_from_datetime_truncates(self):
        value = coerce_value("DATE", datetime.datetime(2007, 3, 9, 13, 30))
        assert value == datetime.date(2007, 3, 9)

    def test_timestamp_from_date(self):
        value = coerce_value("TIMESTAMP", datetime.date(2007, 3, 9))
        assert value == datetime.datetime(2007, 3, 9)

    def test_varchar_stringifies(self):
        assert coerce_value("VARCHAR", 12) == "12"

    def test_bad_date_raises(self):
        with pytest.raises(SchemaError):
            coerce_value("DATE", "not-a-date")

    def test_bad_decimal_raises(self):
        with pytest.raises(SchemaError):
            coerce_value("DECIMAL", "12,99")

    def test_boolean_from_int(self):
        assert coerce_value("BOOLEAN", 1) is True
        assert coerce_value("BOOLEAN", 0) is False

    def test_boolean_from_string_rejected(self):
        with pytest.raises(SchemaError):
            coerce_value("BOOLEAN", "yes")
