"""Tests for Schema and Table."""

import datetime

import pytest

from repro.common.errors import SchemaError
from repro.relational import Column, DataType, Schema, Table
from repro.relational.table import infer_schema, table_from_dicts


def sample_schema() -> Schema:
    return Schema(
        [
            Column("id", DataType.INTEGER, nullable=False),
            Column("name", DataType.STRING),
            Column("score", DataType.FLOAT),
            Column("joined", DataType.DATE),
        ]
    )


def sample_table() -> Table:
    return Table.from_rows(
        "people",
        sample_schema(),
        [
            [1, "ann", 3.5, datetime.date(2020, 1, 1)],
            [2, "bob", None, datetime.date(2021, 6, 15)],
            [3, None, 1.25, None],
        ],
    )


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("a", DataType.INTEGER), Column("A", DataType.FLOAT)])

    def test_index_of_case_insensitive(self):
        schema = sample_schema()
        assert schema.index_of("NAME") == 1

    def test_index_of_unknown_raises(self):
        with pytest.raises(SchemaError, match="no column"):
            sample_schema().index_of("missing")

    def test_fields_carry_qualifier(self):
        fields = sample_schema().fields("p")
        assert all(f.qualifier == "p" for f in fields)

    def test_field_matches_unqualified(self):
        field = sample_schema().fields("p")[0]
        assert field.matches(None, "ID")
        assert field.matches("p", "id")
        assert not field.matches("q", "id")

    def test_row_width_positive(self):
        assert sample_schema().row_width_bytes() > 0


class TestTable:
    def test_from_rows_coerces(self):
        table = Table.from_rows(
            "t", Schema([Column("x", DataType.FLOAT)]), [[1], [2.5]]
        )
        assert table.column("x") == [1.0, 2.5]

    def test_wrong_arity_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_rows("t", sample_schema(), [[1, "a"]])

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", Schema([Column("a", DataType.INTEGER), Column("b", DataType.INTEGER)]), [[1], []])

    def test_rows_round_trip(self):
        table = sample_table()
        assert list(table.rows())[1] == (2, "bob", None, datetime.date(2021, 6, 15))

    def test_num_rows(self):
        assert sample_table().num_rows == 3

    def test_select_columns_order(self):
        selected = sample_table().select_columns(["score", "id"])
        assert selected.schema.names == ["score", "id"]
        assert selected.row(0) == (3.5, 1)

    def test_select_columns_does_not_alias_storage(self):
        table = sample_table()
        selected = table.select_columns(["id"])
        selected.column("id").append(99)
        assert table.num_rows == 3

    def test_take(self):
        taken = sample_table().take([2, 0])
        assert [r[0] for r in taken.rows()] == [3, 1]

    def test_head(self):
        assert sample_table().head(2).num_rows == 2
        assert sample_table().head(10).num_rows == 3

    def test_size_bytes_scales_with_rows(self):
        table = sample_table()
        assert table.size_bytes() == 3 * table.schema.row_width_bytes()

    def test_sorted_rows_nulls_last(self):
        rows = sample_table().select_columns(["name"]).sorted_rows()
        assert rows[-1] == (None,)

    def test_empty_like(self):
        empty = Table.empty_like(sample_table())
        assert empty.num_rows == 0
        assert empty.schema == sample_table().schema


class TestDictConstruction:
    def test_table_from_dicts(self):
        schema = Schema([Column("a", DataType.INTEGER), Column("b", DataType.STRING)])
        table = table_from_dicts("t", schema, [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert table.to_rows() == [(1, "x"), (2, "y")]

    def test_missing_key_rejected(self):
        schema = Schema([Column("a", DataType.INTEGER), Column("b", DataType.STRING)])
        with pytest.raises(SchemaError, match="missing columns"):
            table_from_dicts("t", schema, [{"a": 1}])

    def test_infer_schema(self):
        schema = infer_schema("t", [{"a": None, "b": "x"}, {"a": 2, "b": "y"}])
        assert schema.column("a").dtype is DataType.INTEGER
        assert schema.column("b").dtype is DataType.STRING

    def test_infer_schema_all_null_column_rejected(self):
        with pytest.raises(SchemaError):
            infer_schema("t", [{"a": None}])

