"""Tests for the SMT facade (the paper's three Z3 primitives)."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.logic.formulas import Comparison, FALSE, TRUE, conj, neg
from repro.logic.terms import AggCall, add, const, div, intvar, mul, strvar
from repro.solver import Solver, smt
from repro.solver.atoms import CanonicalLiteral, canonicalize
from repro.solver.theory import check_literals, independent_parts

A, B, C, D = intvar("A"), intvar("B"), intvar("C"), intvar("D")
S, T = strvar("S"), strvar("T")
OPS = ["=", "<>", "<", "<=", ">", ">="]


def cmp(op, lhs, rhs):
    return Comparison(op, lhs, rhs)


class TestSatisfiability:
    def test_true_and_false(self, solver):
        assert solver.is_satisfiable(TRUE)
        assert solver.is_unsatisfiable(FALSE)

    def test_simple_atom(self, solver):
        assert solver.is_satisfiable(cmp(">", A, const(0)))

    def test_contradiction(self, solver):
        f = cmp("<", A, B) & cmp("<", B, A)
        assert solver.is_unsatisfiable(f)

    def test_atom_and_negation(self, solver):
        atom = cmp("=", A, B)
        assert solver.is_unsatisfiable(atom & neg(atom))

    def test_three_way_transitivity(self, solver):
        f = cmp("<", A, B) & cmp("<", B, C) & cmp("<", C, A)
        assert solver.is_unsatisfiable(f)

    def test_boolean_structure(self, solver):
        # (A>0 or A<0) and A=0 is unsat.
        f = (cmp(">", A, const(0)) | cmp("<", A, const(0))) & cmp("=", A, const(0))
        assert solver.is_unsatisfiable(f)

    def test_context_constrains(self, solver):
        context = [cmp(">", A, const(10))]
        assert solver.is_unsatisfiable(cmp("<", A, const(5)), context)
        assert solver.is_satisfiable(cmp("<", A, const(50)), context)


class TestValidityAndEquivalence:
    def test_excluded_middle(self, solver):
        assert solver.is_valid(cmp("<=", A, B) | cmp(">", A, B))

    def test_equiv_syntactic_variants(self, solver):
        left = cmp("=", add(A, const(1)), add(B, const(1)))
        right = cmp("=", A, B)
        assert solver.is_equiv(left, right)

    def test_equiv_scaled_inequality(self, solver):
        left = cmp("<=", mul(const(2), A), mul(const(2), B))
        right = cmp("<=", A, B)
        assert solver.is_equiv(left, right)

    def test_equiv_flipped_sides(self, solver):
        assert solver.is_equiv(cmp("<", A, B), cmp(">", B, A))

    def test_not_equiv(self, solver):
        assert not solver.is_equiv(cmp("<", A, B), cmp("<=", A, B))

    def test_integer_tightening_equiv(self, solver):
        # A > 100 <=> A >= 101 over INT (paper Example 3's key inference).
        assert solver.is_equiv(cmp(">", A, const(100)), cmp(">=", A, const(101)))

    def test_equiv_under_context(self, solver):
        # Under A = C: C > B+3 <=> A > B+3 (paper Example 10).
        context = [cmp("=", A, C)]
        assert solver.is_equiv(
            cmp(">", C, add(B, const(3))),
            cmp(">", A, add(B, const(3))),
            context,
        )

    def test_transitivity_of_equality(self, solver):
        # A=B and B=C entails A=C (Example 1's redundancy pattern).
        f = cmp("=", A, B) & cmp("=", B, C)
        assert solver.entails(f, cmp("=", A, C))

    def test_entails_via_arithmetic(self, solver):
        f = cmp("<=", A, B) & cmp("<=", B, div(C, const(2)))
        assert solver.entails(f, cmp("<=", mul(const(2), A), C))

    def test_in_bound(self, solver):
        lower = cmp("=", A, const(5))
        formula = cmp(">=", A, const(5))
        upper = cmp(">=", A, const(0))
        assert solver.in_bound(lower, formula, upper)
        assert not solver.in_bound(formula, lower, upper)


class TestTermsEqual:
    def test_identical_terms(self, solver):
        assert solver.terms_equal(A, A)

    def test_arithmetic_identity(self, solver):
        assert solver.terms_equal(add(A, A), mul(const(2), A))

    def test_under_context(self, solver):
        context = [cmp("=", A, B)]
        assert solver.terms_equal(A, B, context)
        assert not solver.terms_equal(A, B)

    def test_type_mismatch(self, solver):
        assert not solver.terms_equal(A, S)

    def test_string_constants(self, solver):
        assert solver.terms_equal(const("x"), const("x"))
        assert not solver.terms_equal(const("x"), const("y"))


class TestStrings:
    def test_string_equality_chain(self, solver):
        f = cmp("=", S, T) & cmp("=", T, const("Amy")) & cmp("<>", S, const("Amy"))
        assert solver.is_unsatisfiable(f)

    def test_like_consistent_with_equality(self, solver):
        f = cmp("LIKE", S, const("Eve%")) & cmp("=", S, const("Evelyn"))
        assert solver.is_satisfiable(f)

    def test_like_inconsistent_with_equality(self, solver):
        f = cmp("LIKE", S, const("Eve%")) & cmp("=", S, const("Adam"))
        assert solver.is_unsatisfiable(f)

    def test_wildcard_free_like_is_equality(self, solver):
        assert solver.is_equiv(cmp("LIKE", S, const("Amy")), cmp("=", S, const("Amy")))

    def test_not_like_everything_pattern(self, solver):
        assert solver.is_unsatisfiable(cmp("NOT LIKE", S, const("%")))

    def test_distinct_constants(self, solver):
        assert solver.is_unsatisfiable(
            cmp("=", S, const("a")) & cmp("=", S, const("b"))
        )


class TestCaching:
    def test_repeat_call_hits_cache(self):
        local = Solver()
        f = cmp("<", A, B) & cmp("<", B, A)
        assert local.is_unsatisfiable(f)
        before = local.stats["cache_hits"]
        assert local.is_unsatisfiable(f)
        assert local.stats["cache_hits"] == before + 1

    def test_theory_cache_hits_are_counted(self):
        local = Solver()
        from repro.solver.atoms import canonicalize

        lit = canonicalize(cmp("<", A, B))
        literals = ((lit.atom, lit.positive),)
        assert local._inconsistent_part(literals) is None
        calls = local.stats["theory_calls"]
        assert local._inconsistent_part(literals) is None
        assert local.stats["theory_calls"] == calls  # served from cache
        assert local.stats["theory_cache_hits"] >= 1

    def test_memos_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(smt, "_CACHE_LIMIT", 8)
        local = Solver()
        for bound in range(20):
            # Satisfiable for bound <= 8, unsatisfiable above.
            formula = cmp(">", A, const(bound)) & cmp("<", A, const(10))
            verdict = local.is_satisfiable(formula)
            assert len(local._sat_cache) <= 8
            assert len(local._theory_cache) <= 8
            assert verdict == Solver().is_satisfiable(formula)

    @staticmethod
    def _count_canonicalize(monkeypatch):
        calls = Counter()

        def counting(comparison):
            calls[comparison] += 1
            return canonicalize(comparison)

        monkeypatch.setattr(smt, "canonicalize", counting)
        return calls

    def test_each_comparison_is_canonicalized_once(self, monkeypatch):
        calls = self._count_canonicalize(monkeypatch)
        local = Solver()
        ab, bc, ca = cmp("<", A, B), cmp("<", B, C), cmp("<", C, A)
        assert local.is_satisfiable(ab & bc)
        assert local.is_unsatisfiable(ab & bc & ca)
        assert local.stats["cache_hits"] == 0  # two uncached checks
        assert calls == {ab: 1, bc: 1, ca: 1}

    def test_a_fresh_solver_starts_with_an_empty_memo(self, monkeypatch):
        calls = self._count_canonicalize(monkeypatch)
        ab = cmp("<", A, B)
        assert Solver().is_satisfiable(ab)
        local = Solver()
        assert local._canonical_cache == {}
        assert local.is_satisfiable(ab)
        assert calls == {ab: 2}

    def test_canonical_memo_flushes_wholesale(self, monkeypatch):
        low, high = cmp(">", A, const(1)), cmp("<", A, const(3))
        formulas = [low & high, cmp("<", A, B), low & neg(high),
                    cmp(">", A, const(2)) & cmp("<", A, const(3))]
        expected = [Solver().is_satisfiable(f) for f in formulas]
        monkeypatch.setattr(smt, "_CACHE_LIMIT", 2)
        local = Solver()
        verdicts = [local.is_satisfiable(formulas[0])]
        assert set(local._canonical_cache) == {low, high}
        verdicts.append(local.is_satisfiable(formulas[1]))
        # Full at the limit: both entries go, not only the oldest.
        assert set(local._canonical_cache) == {cmp("<", A, B)}
        verdicts += [local.is_satisfiable(f) for f in formulas[2:]]
        assert len(local._canonical_cache) <= 2
        assert verdicts == expected

    def test_stats_snapshot_has_new_counters(self):
        local = Solver()
        local.is_satisfiable(cmp("<", A, B))
        snapshot = local.stats_snapshot()
        for key in ("learned_clauses", "conflicts",
                    "theory_cache_hits", "cache_hit_rate"):
            assert key in snapshot


# Literal sets for the per-part theory cache: INT columns and COUNT(*)
# under scaled and summed sides (integer tightening then sees fractional
# coefficients), strings that share constants, and an opaque product.
NUMERIC = [A, B, C, AggCall("COUNT", None)]
STRINGS = [S, T, strvar("U")]
numeric_sides = st.one_of(
    st.sampled_from(NUMERIC),
    st.builds(mul, st.integers(2, 3).map(const), st.sampled_from(NUMERIC)),
    st.builds(div, st.sampled_from(NUMERIC), st.integers(2, 3).map(const)),
    st.builds(add, st.sampled_from(NUMERIC), st.sampled_from(NUMERIC)),
)
string_sides = st.sampled_from(STRINGS)
comparisons = st.one_of(
    st.builds(
        cmp, st.sampled_from(OPS), numeric_sides,
        st.one_of(numeric_sides, st.integers(-2, 3).map(const)),
    ),
    st.builds(
        cmp, st.sampled_from(["=", "<>"]), string_sides,
        st.one_of(string_sides, st.sampled_from(["a", "b"]).map(const)),
    ),
    st.builds(
        cmp, st.sampled_from(["LIKE", "NOT LIKE"]), string_sides,
        st.sampled_from(["a", "a%", "%"]).map(const),
    ),
    st.just(cmp(">", mul(A, B), const(1))),
)


def _literals(drawn):
    literals = []
    for comparison, flip in drawn:
        literal = canonicalize(comparison)
        if isinstance(literal, CanonicalLiteral):
            literals.append((literal.atom, literal.positive != flip))
    return tuple(literals)


literal_sets = st.lists(
    st.tuples(comparisons, st.booleans()), max_size=8
).map(_literals)


class TestTheoryParts:
    def test_shared_constant_links_nothing(self):
        literals = _literals([
            (cmp("=", S, const("a")), False),
            (cmp("=", T, const("a")), False),
            (cmp("<>", S, T), False),
        ])
        assert [len(part) for part in independent_parts(literals)] == [3]
        assert [len(part) for part in independent_parts(literals[:2])] == [1, 1]
        assert not check_literals(literals)
        assert Solver()._inconsistent_part(literals) == list(literals)

    def test_a_shared_part_is_decided_once(self):
        less, is_a, is_b = _literals([
            (cmp("<", A, B), False),
            (cmp("=", S, const("a")), False),
            (cmp("=", S, const("b")), False),
        ])
        local = Solver()
        assert local._inconsistent_part((less, is_a)) is None
        assert local.stats["theory_calls"] == 2
        assert local._inconsistent_part((less, is_a, is_b)) == [is_a, is_b]
        assert local.stats["theory_calls"] == 3
        assert local.stats["theory_cache_hits"] == 1

    def test_the_whole_inconsistent_part_is_blocked(self, monkeypatch):
        # a<b, b<c, c<a, a<d share unknowns, so they form one part: its
        # 3-cycle alone is inconsistent, but the conflict rule blocks the
        # part as it is, not a core shrunk out of it.
        blocked, block = [], smt._block_literals

        def recording(sat, atom_vars, literals):
            blocked.append(list(literals))
            block(sat, atom_vars, literals)

        monkeypatch.setattr(smt, "_block_literals", recording)
        cycle = [cmp("<", A, B), cmp("<", B, C), cmp("<", C, A)]
        formula = conj(*cycle, cmp("<", A, D))
        literals = _literals([(c, False) for c in formula.operands])
        assert [len(part) for part in independent_parts(literals)] == [4]
        assert Solver().is_unsatisfiable(formula)
        assert blocked == [list(literals)]

    @settings(max_examples=200, deadline=None)
    @given(literal_sets, st.data())
    def test_parts_decide_like_the_whole_set(self, literals, data):
        """Property: per-part verdicts equal the whole-set verdict, on a
        fresh solver and on one whose cache already holds other sets
        (reorderings of parts of this one among them)."""
        whole = check_literals(literals)
        part = Solver()._inconsistent_part(literals)
        assert (part is None) == whole
        assert part is None or not check_literals(part)
        warm = Solver()
        for _ in range(data.draw(st.integers(1, 3))):
            pool = [*literals, *data.draw(literal_sets)]
            earlier = data.draw(st.permutations(pool))
            warm._inconsistent_part(tuple(earlier[:data.draw(
                st.integers(0, len(earlier))
            )]))
        assert (warm._inconsistent_part(literals) is None) == whole
