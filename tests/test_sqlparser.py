"""Tests for the SQL lexer, parser, and resolver."""

import pytest

from repro.catalog import SqlType
from repro.errors import (
    ParseError,
    ResolutionError,
    TypeError_,
    UnsupportedSQLError,
)
from repro.logic.formulas import And, Comparison, Not, Or, TRUE
from repro.logic.terms import AggCall, Arith, Const, Var
from repro.sqlparser import parse, parse_query
from repro.sqlparser.lexer import tokenize
from repro.sqlparser.rewrite import parse_query_extended

#: Input -> every token as ``(kind, value, position)``, or the ParseError.
LEXED = {
    "escaped quote": ("'O''Brien'", [("string", "O'Brien", 0), ("eof", "", 10)]),
    "unterminated": ("x = 'oops", "unterminated string literal (at position 4)"),
    "unterminated after an escape": (
        "'abc''", "unterminated string literal (at position 0)"
    ),
    "comment at the end": (
        "SELECT x -- no newline",
        [("keyword", "SELECT", 0), ("ident", "x", 7), ("eof", "", 22)],
    ),
    "!= is <>": (
        "a!=b", [("ident", "a", 0), ("op", "<>", 1), ("ident", "b", 3),
                 ("eof", "", 4)],
    ),
    "leading dot": (".5", [("number", ".5", 0), ("eof", "", 2)]),
    "trailing dot": ("1.", [("number", "1", 0), ("op", ".", 1), ("eof", "", 2)]),
    "two dots": (
        "1.2.3", [("number", "1.2", 0), ("number", ".3", 3), ("eof", "", 5)]
    ),
    "separators": (
        "SELECT\tx;\nFROM t;",
        [("keyword", "SELECT", 0), ("ident", "x", 7), ("keyword", "FROM", 10),
         ("ident", "t", 15), ("eof", "", 17)],
    ),
    "non-ASCII identifier": ("é", [("ident", "é", 0), ("eof", "", 1)]),
    "Arabic-Indic digit": ("٣", [("number", "٣", 0), ("eof", "", 1)]),
    "superscript after a digit": (
        "1²", [("number", "1", 0), ("ident", "²", 1), ("eof", "", 2)]
    ),
    "superscript alone": ("²", [("ident", "²", 0), ("eof", "", 1)]),
    "unexpected character": ("a ! b", "unexpected character '!' (at position 2)"),
}


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.kind for t in tokens[:-1]] == ["keyword"] * 3

    def test_string_literal(self):
        tokens = tokenize("'James Joyce Pub'")
        assert tokens[0].kind == "string"
        assert tokens[0].value == "James Joyce Pub"

    def test_string_escaped_quote(self):
        tokens = tokenize("'O''Brien'")
        assert tokens[0].value == "O'Brien"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_numbers(self):
        tokens = tokenize("42 2.20")
        assert tokens[0].value == "42"
        assert tokens[1].value == "2.20"

    def test_operators_including_two_char(self):
        tokens = tokenize("<= >= <> != =")
        values = [t.value for t in tokens[:-1]]
        assert values == ["<=", ">=", "<>", "<>", "="]

    def test_line_comment_skipped(self):
        tokens = tokenize("SELECT -- comment\n x")
        assert tokens[1].value == "x"

    def test_dotted_identifier_tokens(self):
        tokens = tokenize("t1.year")
        assert [t.value for t in tokens[:-1]] == ["t1", ".", "year"]

    def test_semicolon_ignored(self):
        tokens = tokenize("SELECT x;")
        assert tokens[-2].value == "x"


@pytest.mark.parametrize(
    "text, expected", list(LEXED.values()), ids=list(LEXED)
)
def test_token_stream_or_error(text, expected):
    if isinstance(expected, str):
        with pytest.raises(ParseError) as error:
            tokenize(text)
        assert str(error.value) == expected
    else:
        assert [(t.kind, t.value, t.position) for t in tokenize(text)] == expected


class TestParser:
    def test_minimal_select(self):
        stmt = parse("SELECT a FROM T")
        assert len(stmt.select_items) == 1
        assert stmt.from_tables[0].table == "T"

    def test_aliases_with_and_without_as(self):
        stmt = parse("SELECT x AS out FROM T AS t1, U u2")
        assert stmt.select_items[0].alias == "out"
        assert stmt.from_tables[0].alias == "t1"
        assert stmt.from_tables[1].alias == "u2"

    def test_and_or_precedence(self):
        stmt = parse("SELECT a FROM T WHERE a = 1 OR b = 2 AND c = 3")
        # OR binds loosest: top node is OR with AND on the right.
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_parenthesized_condition(self):
        stmt = parse("SELECT a FROM T WHERE (a = 1 OR b = 2) AND c = 3")
        assert stmt.where.op == "AND"
        assert stmt.where.left.op == "OR"

    def test_parenthesized_arithmetic_not_condition(self):
        stmt = parse("SELECT a FROM T WHERE (a + 1) * 2 > 5")
        assert stmt.where.op == ">"

    def test_not_like(self):
        stmt = parse("SELECT a FROM T WHERE name NOT LIKE 'A%'")
        assert stmt.where.op == "NOT LIKE"

    def test_not_condition(self):
        stmt = parse("SELECT a FROM T WHERE NOT a = 1")
        assert stmt.where.op == "NOT"

    def test_group_by_and_having(self):
        stmt = parse(
            "SELECT a, COUNT(*) FROM T GROUP BY a, b HAVING COUNT(*) > 2"
        )
        assert len(stmt.group_by) == 2
        assert stmt.having is not None

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM T").distinct

    def test_aggregates(self):
        stmt = parse("SELECT COUNT(*), SUM(x), COUNT(DISTINCT y) FROM T")
        items = [item.expr for item in stmt.select_items]
        assert items[0].arg is None
        assert items[1].name == "SUM"
        assert items[2].distinct

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT a FROM T WHERE a + 2 * b = 7")
        plus = stmt.where.left
        assert plus.op == "+"
        assert plus.right.op == "*"

    def test_unary_minus(self):
        stmt = parse("SELECT a FROM T WHERE a > -5")
        assert stmt.where.right.op == "-"

    def test_select_star_unsupported(self):
        with pytest.raises(UnsupportedSQLError):
            parse("SELECT * FROM T")

    def test_order_by_unsupported(self):
        with pytest.raises(UnsupportedSQLError):
            parse("SELECT a FROM T ORDER BY a")

    def test_unknown_function_unsupported(self):
        with pytest.raises(UnsupportedSQLError):
            parse("SELECT UPPER(a) FROM T")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM T WHERE a = 1 banana extra")

    def test_missing_from_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT a WHERE a = 1")


class TestResolver:
    def test_with_query_is_flattened(self, beers_catalog):
        query = parse_query(
            "WITH cheap AS (SELECT beer, price FROM Serves WHERE price < 3) "
            "SELECT c.beer FROM cheap c WHERE c.price > 1",
            beers_catalog,
        )
        assert query.to_sql() == (
            "SELECT c_q1.beer FROM Serves c_q1 "
            "WHERE (c_q1.price > 1 AND c_q1.price < 3)"
        )

    def test_parse_query_extended_is_parse_query(self):
        assert parse_query_extended is parse_query

    def test_qualified_resolution(self, beers_catalog):
        query = parse_query(
            "SELECT Serves.beer FROM Serves WHERE Serves.price > 2", beers_catalog
        )
        (term,) = [query.select[0]]
        assert isinstance(term, Var)
        assert term.name == "serves.beer"
        assert term.vtype == SqlType.STRING

    def test_unqualified_unique_resolution(self, beers_catalog):
        query = parse_query("SELECT price FROM Serves", beers_catalog)
        assert query.select[0].name == "serves.price"

    def test_ambiguous_column_rejected(self, beers_catalog):
        with pytest.raises(ResolutionError):
            parse_query("SELECT beer FROM Serves, Likes", beers_catalog)

    def test_unknown_table(self, beers_catalog):
        with pytest.raises(ResolutionError):
            parse_query("SELECT x FROM Nope", beers_catalog)

    def test_unknown_column(self, beers_catalog):
        with pytest.raises(ResolutionError):
            parse_query("SELECT vintage FROM Serves", beers_catalog)

    def test_unknown_alias(self, beers_catalog):
        with pytest.raises(ResolutionError):
            parse_query("SELECT z.beer FROM Serves s", beers_catalog)

    def test_duplicate_alias_rejected(self, beers_catalog):
        with pytest.raises(ResolutionError):
            parse_query("SELECT s.beer FROM Serves s, Likes s", beers_catalog)

    def test_default_alias_is_table_name(self, beers_catalog):
        query = parse_query("SELECT beer FROM Serves", beers_catalog)
        assert query.from_entries[0].alias == "serves"

    def test_type_mismatch_comparison(self, beers_catalog):
        with pytest.raises(TypeError_):
            parse_query("SELECT beer FROM Serves WHERE beer = 3", beers_catalog)

    def test_like_requires_strings(self, beers_catalog):
        with pytest.raises(TypeError_):
            parse_query("SELECT beer FROM Serves WHERE price LIKE 'x'", beers_catalog)

    def test_arithmetic_on_strings_rejected(self, beers_catalog):
        with pytest.raises(TypeError_):
            parse_query("SELECT beer + 1 FROM Serves", beers_catalog)

    def test_aggregate_in_where_rejected(self, beers_catalog):
        with pytest.raises(UnsupportedSQLError):
            parse_query(
                "SELECT beer FROM Serves WHERE COUNT(*) > 1", beers_catalog
            )

    def test_nested_aggregates_rejected(self, beers_catalog):
        with pytest.raises(UnsupportedSQLError):
            parse_query("SELECT SUM(COUNT(*)) FROM Serves", beers_catalog)

    def test_having_nongrouped_column_rejected(self, beers_catalog):
        with pytest.raises(UnsupportedSQLError):
            parse_query(
                "SELECT bar FROM Serves GROUP BY bar HAVING price > 2",
                beers_catalog,
            )

    def test_missing_where_defaults_true(self, beers_catalog):
        query = parse_query("SELECT beer FROM Serves", beers_catalog)
        assert query.where == TRUE

    def test_where_becomes_formula_tree(self, beers_catalog):
        query = parse_query(
            "SELECT beer FROM Serves WHERE price > 1 AND price < 3 AND bar = 'x'",
            beers_catalog,
        )
        assert isinstance(query.where, And)
        assert len(query.where.operands) == 3  # flattened n-ary AND

    def test_spja_detection(self, beers_catalog):
        spj = parse_query("SELECT beer FROM Serves", beers_catalog)
        spja = parse_query(
            "SELECT bar, COUNT(*) FROM Serves GROUP BY bar", beers_catalog
        )
        assert not spj.is_spja
        assert spja.is_spja
        distinct = parse_query("SELECT DISTINCT beer FROM Serves", beers_catalog)
        assert distinct.is_spja

    def test_float_literal(self, beers_catalog):
        query = parse_query(
            "SELECT beer FROM Serves WHERE price > 2.20", beers_catalog
        )
        atom = query.where
        assert atom.right.type == SqlType.FLOAT

    def test_roundtrip_to_sql_reparses(self, beers_catalog):
        sql = (
            "SELECT likes.drinker FROM Likes, Frequents "
            "WHERE likes.drinker = frequents.drinker AND frequents.times_a_week >= 2"
        )
        query = parse_query(sql, beers_catalog)
        again = parse_query(query.to_sql(), beers_catalog)
        assert again.where == query.where
        assert again.select == query.select
