"""Parser tests over the supported SELECT grammar."""

import pytest

from repro.exceptions import SQLSyntaxError
from repro.sqlparser import ast, parse_select


class TestProjection:
    def test_single_column(self):
        stmt = parse_select("SELECT a FROM r")
        assert stmt.select_items[0].expression == ast.ColumnRef(column="a")

    def test_qualified_column(self):
        stmt = parse_select("SELECT r.a FROM r")
        assert stmt.select_items[0].expression == ast.ColumnRef(column="a", table="r")

    def test_star(self):
        stmt = parse_select("SELECT * FROM r")
        assert stmt.select_items[0].expression == "*"

    def test_multiple_items(self):
        stmt = parse_select("SELECT a, b, c FROM r")
        assert len(stmt.select_items) == 3

    def test_alias_with_as(self):
        stmt = parse_select("SELECT a AS x FROM r")
        assert stmt.select_items[0].alias == "x"

    def test_alias_without_as(self):
        stmt = parse_select("SELECT a x FROM r")
        assert stmt.select_items[0].alias == "x"

    def test_distinct_flag(self):
        assert parse_select("SELECT DISTINCT a FROM r").distinct
        assert not parse_select("SELECT a FROM r").distinct

    @pytest.mark.parametrize("func", ["COUNT", "SUM", "AVG", "MIN", "MAX"])
    def test_aggregates(self, func):
        stmt = parse_select(f"SELECT {func}(a) FROM r")
        agg = stmt.select_items[0].expression
        assert isinstance(agg, ast.Aggregate)
        assert agg.func == func
        assert agg.argument == ast.ColumnRef(column="a")

    def test_count_star(self):
        agg = parse_select("SELECT COUNT(*) FROM r").select_items[0].expression
        assert agg.argument is None

    def test_count_distinct(self):
        agg = parse_select("SELECT COUNT(DISTINCT a) FROM r").select_items[0].expression
        assert agg.argument == ast.ColumnRef(column="a")


class TestFromClause:
    def test_single_table(self):
        stmt = parse_select("SELECT a FROM r")
        assert stmt.tables == (ast.TableRef(table="r"),)

    def test_comma_join(self):
        stmt = parse_select("SELECT a FROM r, s, t")
        assert [t.table for t in stmt.tables] == ["r", "s", "t"]

    def test_table_alias(self):
        stmt = parse_select("SELECT a FROM lineitem l")
        assert stmt.tables[0].alias == "l"
        assert stmt.tables[0].binding == "l"

    def test_table_alias_with_as(self):
        stmt = parse_select("SELECT a FROM lineitem AS l")
        assert stmt.tables[0].alias == "l"

    def test_explicit_join_on(self):
        stmt = parse_select("SELECT a FROM r JOIN s ON r.x = s.y")
        assert len(stmt.tables) == 2
        assert len(stmt.join_predicates) == 1

    def test_inner_join(self):
        stmt = parse_select("SELECT a FROM r INNER JOIN s ON r.x = s.y")
        assert len(stmt.join_predicates) == 1

    def test_join_on_requires_column_equality(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT a FROM r JOIN s ON r.x = 5")


class TestWhereClause:
    @pytest.mark.parametrize("op", ["=", "<", ">", "<=", ">=", "<>"])
    def test_comparison_ops(self, op):
        stmt = parse_select(f"SELECT a FROM r WHERE a {op} 5")
        pred = stmt.predicates[0]
        assert isinstance(pred, ast.Comparison)
        assert pred.op == op
        assert pred.right == ast.Literal(value=5.0)

    def test_negative_literal(self):
        stmt = parse_select("SELECT a FROM r WHERE a > -10")
        assert stmt.predicates[0].right == ast.Literal(value=-10.0)

    def test_string_comparison(self):
        stmt = parse_select("SELECT a FROM r WHERE name = 'bob'")
        assert stmt.predicates[0].right == ast.Literal(value="bob")

    def test_between(self):
        stmt = parse_select("SELECT a FROM r WHERE a BETWEEN 1 AND 10")
        pred = stmt.predicates[0]
        assert isinstance(pred, ast.Between)
        assert (pred.low.value, pred.high.value) == (1.0, 10.0)

    def test_in_list(self):
        stmt = parse_select("SELECT a FROM r WHERE a IN (1, 2, 3)")
        pred = stmt.predicates[0]
        assert isinstance(pred, ast.InList)
        assert [v.value for v in pred.values] == [1.0, 2.0, 3.0]

    def test_in_list_strings(self):
        stmt = parse_select("SELECT a FROM r WHERE mode IN ('AIR', 'SHIP')")
        assert [v.value for v in stmt.predicates[0].values] == ["AIR", "SHIP"]

    def test_like(self):
        pred = parse_select("SELECT a FROM r WHERE name LIKE 'bob%'").predicates[0]
        assert isinstance(pred, ast.Like)
        assert pred.pattern == "bob%"
        assert not pred.negated
        assert not pred.has_leading_wildcard

    def test_not_like(self):
        pred = parse_select("SELECT a FROM r WHERE name NOT LIKE '%x%'").predicates[0]
        assert pred.negated
        assert pred.has_leading_wildcard

    def test_is_null(self):
        pred = parse_select("SELECT a FROM r WHERE b IS NULL").predicates[0]
        assert isinstance(pred, ast.IsNull)
        assert not pred.negated

    def test_is_not_null(self):
        pred = parse_select("SELECT a FROM r WHERE b IS NOT NULL").predicates[0]
        assert pred.negated

    def test_conjunction(self):
        stmt = parse_select("SELECT a FROM r WHERE a = 1 AND b > 2 AND c < 3")
        assert len(stmt.predicates) == 3

    def test_or_rejected(self):
        with pytest.raises(SQLSyntaxError, match="OR"):
            parse_select("SELECT a FROM r WHERE a = 1 OR b = 2")

    def test_join_predicate_in_where(self):
        stmt = parse_select("SELECT a FROM r, s WHERE r.x = s.y")
        assert len(stmt.join_predicates) == 1
        assert not stmt.filter_predicates

    def test_filter_vs_join_split(self):
        stmt = parse_select("SELECT a FROM r, s WHERE r.x = s.y AND r.a = 1")
        assert len(stmt.join_predicates) == 1
        assert len(stmt.filter_predicates) == 1

    def test_literal_on_left_is_normalised(self):
        pred = parse_select("SELECT a FROM r WHERE 5 < a").predicates[0]
        assert isinstance(pred.left, ast.ColumnRef)
        assert pred.op == ">"


class TestTrailingClauses:
    def test_group_by(self):
        stmt = parse_select("SELECT a, COUNT(*) FROM r GROUP BY a")
        assert stmt.group_by == (ast.ColumnRef(column="a"),)

    def test_group_by_multiple(self):
        stmt = parse_select("SELECT a, b FROM r GROUP BY a, b")
        assert len(stmt.group_by) == 2

    def test_order_by_default_asc(self):
        stmt = parse_select("SELECT a FROM r ORDER BY a")
        assert stmt.order_by[0].descending is False

    def test_order_by_desc(self):
        stmt = parse_select("SELECT a FROM r ORDER BY a DESC")
        assert stmt.order_by[0].descending is True

    def test_order_by_explicit_asc(self):
        stmt = parse_select("SELECT a FROM r ORDER BY a ASC")
        assert stmt.order_by[0].descending is False

    def test_limit(self):
        assert parse_select("SELECT a FROM r LIMIT 10").limit == 10

    def test_limit_requires_integer(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT a FROM r LIMIT 1.5")

    def test_trailing_semicolon_ok(self):
        assert parse_select("SELECT a FROM r;").limit is None

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError, match="trailing"):
            parse_select("SELECT a FROM r extra stuff here")


class TestErrors:
    def test_missing_from(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT a WHERE a = 1")

    def test_not_a_select(self):
        with pytest.raises(SQLSyntaxError, match="SELECT"):
            parse_select("DELETE FROM r")

    def test_empty_in_list(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT a FROM r WHERE a IN ()")

    def test_dangling_and(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT a FROM r WHERE a = 1 AND")

    def test_error_reports_sql(self):
        with pytest.raises(SQLSyntaxError) as excinfo:
            parse_select("SELECT a FROM r WHERE")
        assert excinfo.value.sql is not None

    @pytest.mark.parametrize(
        "sql, position",
        [
            ("SELECT a FROM t LIMIT ²", 22),
            ("SELECT a FROM t WHERE a = 1²", 26),
            ("SELECT a FROM t WHERE a = -፩", 27),
            ("SELECT a FROM t WHERE a IN (1, .²)", 31),
        ],
    )
    def test_number_float_rejects_is_a_syntax_error(self, sql, position):
        # ² and ፩ lex as digits (str.isdigit), but float() rejects them.
        with pytest.raises(SQLSyntaxError, match="malformed number") as excinfo:
            parse_select(sql)
        assert excinfo.value.position == position

    def test_limit_past_the_float_range_is_a_syntax_error(self):
        with pytest.raises(SQLSyntaxError, match="LIMIT must be a non-negative integer"):
            parse_select("SELECT a FROM t LIMIT " + "9" * 400)

    @pytest.mark.parametrize(
        "sql", ["SELECT a FROM t LIMIT 1.5", "SELECT a FROM t LIMIT 1.5 ;"]
    )
    def test_fractional_limit_is_reported_at_the_number(self, sql):
        with pytest.raises(SQLSyntaxError) as excinfo:
            parse_select(sql)
        assert str(excinfo.value) == (
            "LIMIT must be a non-negative integer (found '1.5' at position 22)"
        )
        assert excinfo.value.position == 22


class TestRendering:
    def test_literal_render_string_escapes(self):
        assert ast.Literal(value="it's").render() == "'it''s'"

    def test_literal_render_integer(self):
        assert ast.Literal(value=5.0).render() == "5"

    def test_column_render_qualified(self):
        assert ast.ColumnRef(column="a", table="r").render() == "r.a"

    def test_aggregate_render(self):
        agg = ast.Aggregate(func="SUM", argument=ast.ColumnRef(column="x"))
        assert agg.render() == "SUM(x)"
