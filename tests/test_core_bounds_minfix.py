"""Tests for CreateBounds (Algorithm 2), MinFix (Algorithms 5/6) and
MinFixMult's feasibility map (Algorithm 8)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.boolmin import DONT_CARE
from repro.core.bounds import bounds_admit, create_bounds
from repro.core.derive_opt import (
    _atoms_outside,
    _merge_sibling_sites,
    _site_feasibility,
)
from repro.core.minfix import build_truth_table, map_atom_preds, min_fix, min_fix_pos
from repro.errors import RepairError
from repro.logic.formulas import (
    And,
    BoolConst,
    Comparison,
    FALSE,
    Not,
    Or,
    TRUE,
    conj,
    disj,
    neg,
)
from repro.logic.paths import all_paths, paths_disjoint, replace_at
from repro.logic.terms import AggCall, add, const, intvar, strvar
from repro.solver import Solver

A, B, C, D, E, F = (intvar(x) for x in "ABCDEF")
OPS = ["=", "<>", "<", "<=", ">", ">="]


def cmp(op, lhs, rhs):
    return Comparison(op, lhs, rhs)


def evaluate_row(mapping, formula, row):
    """Reference for ``AtomMapping.rows``: ``formula``'s value on one row."""
    if isinstance(formula, BoolConst):
        return formula.value
    if isinstance(formula, Comparison):
        entry = mapping.polarity.get(formula)
        if entry is None:
            index, positive = mapping.polarity[formula.negated()]
            positive = not positive
        else:
            index, positive = entry
        return bool(row >> index & 1) == positive
    if isinstance(formula, Not):
        return not evaluate_row(mapping, formula.child, row)
    values = [evaluate_row(mapping, child, row) for child in formula.operands]
    return all(values) if isinstance(formula, And) else any(values)


def reference_table(mapping, lower, upper, solver, context):
    """``BuildTruthTable`` by its per-row definition: row -> output."""
    outputs = {}
    for row in range(1 << mapping.num_vars):
        literals = [
            atom if row >> i & 1 else neg(atom)
            for i, atom in enumerate(mapping.atoms)
        ]
        if not solver.is_satisfiable(conj(*literals), context):
            outputs[row] = DONT_CARE
            continue
        low = evaluate_row(mapping, lower, row)
        high = evaluate_row(mapping, upper, row)
        outputs[row] = int(low) if low == high else DONT_CARE
    return outputs


def _pairwise_map_atom_preds(formulas, solver, context=()):
    """Reference: ``MapAtomPreds`` by the plain pairwise scan.

    Every atom is checked against every representative in turn, two
    ``is_equiv`` calls each, whatever base terms the two share.  Returns
    ``(atoms, polarity)``.
    """
    atoms, polarity = [], {}
    for formula in formulas:
        for atom in formula.atoms():
            if atom in polarity:
                continue
            mapped = None
            for i, representative in enumerate(atoms):
                if solver.is_equiv(atom, representative, context):
                    mapped = (i, True)
                    break
                if solver.is_equiv(atom, neg(representative), context):
                    mapped = (i, False)
                    break
            if mapped is None:
                atoms.append(atom)
                mapped = (len(atoms) - 1, True)
            polarity[atom] = mapped
    return atoms, polarity


def _eval_with_sites(node, path, sites, mapping, a_assign, s_assign):
    """Reference for MinFixMult: the predicate with sites as variables."""
    for index, site in enumerate(sites):
        if path in site.paths and not site.is_group:
            return bool(s_assign & (1 << index))
    if isinstance(node, BoolConst):
        return node.value
    if isinstance(node, Comparison):
        return evaluate_row(mapping, node, a_assign)
    if isinstance(node, Not):
        return not _eval_with_sites(
            node.child, path + (0,), sites, mapping, a_assign, s_assign
        )
    values = []
    group_done = set()
    for i, child in enumerate(node.children()):
        child_path = path + (i,)
        member_of = None
        for index, site in enumerate(sites):
            if site.is_group and child_path in site.paths:
                member_of = index
                break
        if member_of is not None:
            if member_of not in group_done:
                group_done.add(member_of)
                values.append(bool(s_assign & (1 << member_of)))
            continue
        values.append(
            _eval_with_sites(child, child_path, sites, mapping, a_assign, s_assign)
        )
    return all(values) if isinstance(node, And) else any(values)


NUMERIC = [A, B, C, D, AggCall("COUNT", None)]
STRINGS = [strvar("S"), strvar("T")]


def atoms_over(kinds):
    """Atoms over 4 int columns, COUNT(*) and 2 string columns.

    ``kind`` 0 compares a term with itself (a tautology or a
    contradiction), 1 with another term, 2 with a constant.
    """
    numeric = st.builds(
        lambda op, i, j, k, kind: cmp(
            op, NUMERIC[i], (NUMERIC[i], NUMERIC[j], const(k))[kind]
        ),
        st.sampled_from(OPS),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(-1, 3),
        kinds,
    )
    strings = st.builds(
        lambda op, i, j, k, kind: cmp(
            op, STRINGS[i], (STRINGS[i], STRINGS[j], const(k))[kind]
        ),
        st.sampled_from(["=", "<>"]),
        st.integers(0, 1),
        st.integers(0, 1),
        st.sampled_from(["a", "b"]),
        kinds,
    )
    return st.one_of(numeric, strings)


any_atoms = atoms_over(st.integers(0, 2))
# Contexts compare with other terms or constants only, so that most of
# them are satisfiable and leave the atoms apart.
context_atoms = atoms_over(st.integers(1, 2))
contexts = st.one_of(
    st.just(()),
    st.lists(context_atoms, min_size=1, max_size=2).map(tuple),
    st.tuples(context_atoms, context_atoms).map(lambda pair: (disj(*pair),)),
)
# Contexts that may also compare a term with itself, so that some are
# unsatisfiable or make atoms constant.
wide_contexts = st.one_of(
    contexts, st.lists(any_atoms, min_size=1, max_size=3).map(tuple)
)


@st.composite
def bounds(draw):
    """``(lower, upper)`` over up to 10 atoms, ``upper`` the looser."""
    count = draw(st.integers(3, 9))
    atoms = draw(st.lists(any_atoms, min_size=count, max_size=count))
    literals = [
        atom if draw(st.booleans()) else neg(atom) for atom in atoms
    ]
    cut = draw(st.integers(1, len(literals)))
    lower = disj(conj(*literals[:cut]), conj(*literals[cut:])) if (
        cut < len(literals)
    ) else conj(*literals)
    return lower, disj(lower, draw(any_atoms))


def example5_predicates():
    """P and P* from paper Example 5 / Figure 1."""
    p_star = (cmp("=", A, C) & (cmp("<", E, const(5)) | cmp(">", D, const(10)) | cmp("<", D, const(7)))) | (
        cmp("=", A, B) & (cmp("<>", D, E) | cmp(">", D, F))
    )
    p = (cmp("=", A, C) & (cmp("<>", D, E) | cmp(">", D, F))) | (
        cmp("=", A, C)
        & (cmp(">", D, const(11)) | cmp("<", D, const(7)) | cmp("<=", E, const(5)))
    )
    return p, p_star


class TestCreateBounds:
    def test_site_at_root(self):
        p, _ = example5_predicates()
        assert create_bounds(p, [()]) == (FALSE, TRUE)

    def test_no_sites_bound_is_tight(self):
        p, _ = example5_predicates()
        lower, upper = create_bounds(p, [])
        assert lower == p and upper == p

    def test_atom_site_inside_and(self):
        # (A=C and X) with X a site: bound is [FALSE, A=C].
        formula = cmp("=", A, C) & cmp("<", D, const(7))
        lower, upper = create_bounds(formula, [(1,)])
        assert lower == FALSE
        assert upper == cmp("=", A, C)

    def test_atom_site_inside_or(self):
        formula = cmp("=", A, C) | cmp("<", D, const(7))
        lower, upper = create_bounds(formula, [(0,)])
        assert lower == cmp("<", D, const(7))
        assert upper == TRUE

    def test_not_flips_bounds(self):
        formula = Not(cmp("=", A, C) & cmp("<", D, const(7)))
        lower, upper = create_bounds(formula, [(0, 1)])
        # Child bound: [FALSE, A=C]; negation: [not(A=C), TRUE].
        assert lower == neg(cmp("=", A, C))
        assert upper == TRUE

    def test_example7_root_bounds(self, solver):
        # Paper Example 7: sites {x4, x10, x12} give root bounds
        # [A=C and D<7,  D<>E or D>F or A=C].
        p, p_star = example5_predicates()
        sites = [(0, 0), (1, 1, 0), (1, 1, 2)]
        lower, upper = create_bounds(p, sites)
        expected_lower = cmp("=", A, C) & cmp("<", D, const(7))
        expected_upper = disj(cmp("<>", D, E), cmp(">", D, F), cmp("=", A, C))
        assert solver.is_equiv(lower, expected_lower)
        assert solver.is_equiv(upper, expected_upper)
        assert bounds_admit(solver, lower, p_star, upper)

    def test_viability_rejects_insufficient_sites(self, solver):
        # Fixing only x11 (D<7) cannot reach P*.
        p, p_star = example5_predicates()
        lower, upper = create_bounds(p, [(1, 1, 1)])
        assert not bounds_admit(solver, lower, p_star, upper)

    def test_bounds_always_contain_any_fix_result(self, solver):
        # Lemma 5.3 sanity: applying arbitrary fixes stays within bounds.
        from repro.logic.paths import replace_at

        p, _ = example5_predicates()
        sites = [(0, 0), (1, 1, 0)]
        lower, upper = create_bounds(p, sites)
        for fix in (TRUE, FALSE, cmp("=", A, B), cmp(">", D, F)):
            repaired = replace_at(p, {site: fix for site in sites})
            assert solver.in_bound(lower, repaired, upper)


class TestMapAtomPreds:
    def test_merges_equivalent_atoms(self, solver):
        f1 = cmp("=", add(A, const(1)), add(B, const(1)))
        f2 = cmp("=", A, B)
        mapping = map_atom_preds([f1, f2], solver)
        assert mapping.num_vars == 1

    def test_merges_negation_equivalent_atoms(self, solver):
        f1 = cmp("<", A, B)
        f2 = cmp(">=", A, B)
        mapping = map_atom_preds([conj(f1, f2)], solver)
        assert mapping.num_vars == 1
        assert mapping.polarity[f1][0] == mapping.polarity[f2][0]
        assert mapping.polarity[f1][1] != mapping.polarity[f2][1]

    def test_distinct_atoms_get_distinct_vars(self, solver):
        mapping = map_atom_preds([cmp("<", A, B) & cmp("<", B, C)], solver)
        assert mapping.num_vars == 2

    def test_evaluate_respects_polarity(self, solver):
        f = cmp("<", A, B)
        g = cmp(">=", A, B)
        mapping = map_atom_preds([f, g], solver)
        assert mapping.num_vars == 1
        assert mapping.rows(f) == mapping.full ^ mapping.rows(g)
        assert mapping.rows(f) >> 1 & 1 != mapping.rows(g) >> 1 & 1

    @settings(max_examples=200, deadline=None)
    @given(bounds(), st.lists(any_atoms, max_size=4), wide_contexts)
    def test_matches_pairwise_scan(self, bound, extra, context):
        formulas = [*extra, *bound]
        mapping = map_atom_preds(formulas, Solver(), context)
        expected = _pairwise_map_atom_preds(formulas, Solver(), context)
        assert (mapping.atoms, mapping.polarity) == expected

    @pytest.mark.parametrize("context, first, second, expected", [
        # Both atoms hold everywhere the context does, with no column in
        # common.
        ((cmp(">", A, const(5)), cmp("<", B, const(0))),
         cmp(">", A, const(3)), cmp("<", B, const(1)), (0, True)),
        # One holds everywhere and the other nowhere.
        ((cmp(">", A, const(5)), cmp("<", B, const(0))),
         cmp(">", A, const(3)), cmp(">", B, const(1)), (0, False)),
        # Under an unsatisfiable context every atom is equivalent.
        ((cmp(">", A, const(5)), cmp("<", A, const(0))),
         cmp(">", B, const(3)), cmp("=", strvar("S"), const("x")), (0, True)),
    ])
    def test_atoms_across_components(self, context, first, second, expected):
        mapping = map_atom_preds([conj(first, second)], Solver(), context)
        assert mapping.polarity == {first: (0, True), second: expected}
        assert _pairwise_map_atom_preds(
            [conj(first, second)], Solver(), context
        ) == (mapping.atoms, mapping.polarity)


class TestBuildTruthTable:
    @settings(max_examples=60, deadline=None)
    @given(bounds(), contexts)
    def test_matches_per_row_definition(self, bound, context):
        lower, upper = bound
        solver = Solver()
        mapping = map_atom_preds([lower, upper], solver, context)
        table = build_truth_table(mapping, lower, upper, solver, context)
        expected = reference_table(mapping, lower, upper, Solver(), context)
        assert {row: table.output(row) for row in expected} == expected

    def test_count_star_links_its_atoms(self):
        # COUNT(*) contains no Var: only the aggregate links these atoms
        # into one component.  Apart, the row where both hold looks
        # feasible and would be a real row valued 1.
        count = AggCall("COUNT", None)
        more, fewer = cmp(">", count, const(2)), cmp("<", count, const(1))
        lower, upper = conj(more, fewer), disj(more, fewer)
        solver = Solver()
        mapping = map_atom_preds([lower, upper], solver)
        table = build_truth_table(mapping, lower, upper, solver)
        assert mapping.num_vars == 2
        assert table.output(0b11) == DONT_CARE
        assert table.output(0b00) == 0
        assert solver.stats["core_pruned_subtrees"] == 1

    def test_infeasible_rows_are_dont_care(self, solver):
        # Atoms A=B and A<B cannot both hold.
        lower = cmp("=", A, B) & cmp("<", A, B)
        upper = lower
        mapping = map_atom_preds([lower, upper], solver)
        table = build_truth_table(mapping, lower, upper, solver)
        both_true = (1 << mapping.num_vars) - 1
        assert table.output(both_true) == "*"

    def test_gap_rows_are_dont_care(self, solver):
        lower = cmp("=", A, const(5))
        upper = TRUE
        mapping = map_atom_preds([lower, upper], solver)
        table = build_truth_table(mapping, lower, upper, solver)
        assert table.output(0) == "*"  # l=0, u=1 -> don't care


class TestMinFix:
    def test_tight_bound_returns_equivalent(self, solver):
        target = cmp("=", A, B) & cmp("<", C, const(5))
        fix = min_fix(target, target, solver)
        assert solver.is_equiv(fix, target)

    def test_degenerate_true(self, solver):
        assert min_fix(TRUE, TRUE, solver) == TRUE

    def test_degenerate_false(self, solver):
        assert min_fix(FALSE, FALSE, solver) == FALSE

    def test_full_slack_gives_constant(self, solver):
        assert min_fix(FALSE, TRUE, solver) in (TRUE, FALSE)

    def test_loose_bound_allows_smaller_formula(self, solver):
        # Paper Section 5.2 example: [a1&a2&a3, (a1&a2)|a3] admits just a3.
        a1 = cmp("=", A, const(1))
        a2 = cmp("=", B, const(2))
        a3 = cmp("=", C, const(3))
        lower = conj(a1, a2, a3)
        upper = disj(conj(a1, a2), a3)
        fix = min_fix(lower, upper, solver)
        assert fix == a3

    def test_result_always_within_bounds(self, solver):
        lower = cmp("=", A, B) & cmp(">", C, const(0))
        upper = cmp("=", A, B) | cmp(">", C, const(0))
        fix = min_fix(lower, upper, solver)
        assert solver.in_bound(lower, fix, upper)

    def test_example14(self, solver):
        # l = (a>=b and f=e) or a=b ; u = a=b or e=f or a>b ; answer a>=b.
        lower = disj(conj(cmp(">=", A, B), cmp("=", F, E)), cmp("=", A, B))
        upper = disj(cmp("=", A, B), cmp("=", E, F), cmp(">", A, B))
        fix = min_fix(lower, upper, solver)
        assert solver.is_equiv(fix, cmp(">=", A, B))
        assert fix.size() == 1

    def test_pos_variant_within_bounds(self, solver):
        lower = cmp("=", A, B) & cmp(">", C, const(0))
        upper = cmp("=", A, B) | cmp(">", C, const(0))
        fix = min_fix_pos(lower, upper, solver)
        assert solver.in_bound(lower, fix, upper)

    def test_pos_variant_conjunctive_target(self, solver):
        target = cmp("=", A, B) & cmp("<", C, D)
        fix = min_fix_pos(target, target, solver)
        assert solver.is_equiv(fix, target)


site_atoms = st.builds(
    lambda op, i, k: cmp(op, (A, B, C)[i], const(k)),
    st.sampled_from(OPS),
    st.integers(0, 2),
    st.integers(0, 3),
)


def predicates(depth):
    if depth == 0:
        return site_atoms
    sub = predicates(depth - 1)
    return st.one_of(
        sub,
        st.lists(sub, min_size=2, max_size=3).map(lambda cs: And(tuple(cs))),
        st.lists(sub, min_size=2, max_size=3).map(lambda cs: Or(tuple(cs))),
        sub.map(Not),
    )


@st.composite
def site_cases(draw):
    """``(predicate, site paths, lower, upper)`` with 1-3 disjoint sites."""
    children = tuple(draw(st.lists(predicates(1), min_size=2, max_size=3)))
    predicate = And(children) if draw(st.booleans()) else Or(children)
    nodes = all_paths(predicate)[1:]  # every subtree but the root
    wanted = draw(st.integers(1, 3))
    chosen = []
    junctions = [path for path, node in nodes if isinstance(node, (And, Or))]
    if junctions and draw(st.booleans()):
        parent = draw(st.sampled_from(junctions))
        chosen = [parent + (0,), parent + (1,)]  # a merged sibling group
    for path in draw(st.permutations([path for path, _ in nodes])):
        if len(chosen) >= wanted:
            break
        if paths_disjoint(chosen + [path]):
            chosen.append(path)
    if draw(st.booleans()):
        # Viable by construction: some fix of the sites yields the target.
        target = replace_at(predicate, {
            path: draw(predicates(1)) for path in chosen
        })
    else:
        target = draw(predicates(1))
    upper = disj(target, draw(site_atoms)) if draw(st.booleans()) else target
    return predicate, chosen, target, upper


_a1, _a2, _a3, _a4 = (cmp("=", A, const(1)), cmp(">", B, const(2)),
                      cmp("<", C, const(3)), cmp("<>", A, const(2)))


class TestSiteFeasibility:
    @settings(max_examples=60, deadline=None)
    @given(site_cases())
    @example((Or((And((_a1, _a2, _a3)), _a4)), [(0, 0), (0, 1)],
              disj(_a1, _a4), disj(_a1, _a4)))
    def test_matches_per_row_reference(self, case):
        predicate, paths, lower, upper = case
        solver = Solver()
        sites = _merge_sibling_sites(predicate, paths)
        outside = _atoms_outside(predicate, [p for s in sites for p in s.paths])
        mapping = map_atom_preds([*outside, lower, upper], solver)
        target = build_truth_table(mapping, lower, upper, solver)
        rows = range(1 << mapping.num_vars)
        expected = [
            [
                target.output(a) != DONT_CARE
                and int(_eval_with_sites(predicate, (), sites, mapping, a, s))
                == target.output(a)
                for a in rows
            ]
            for s in range(1 << len(sites))
        ]
        if not all(
            any(verdicts[a] for verdicts in expected)
            for a in rows if target.output(a) != DONT_CARE
        ):
            with pytest.raises(RepairError, match="not viable"):
                _site_feasibility(predicate, sites, mapping, target)
            return
        _, ok = _site_feasibility(predicate, sites, mapping, target)
        assert [[bool(options >> a & 1) for a in rows] for options in ok] == (
            expected
        )
