"""``DeriveFixes`` and ``DistributeFixes`` (Algorithm 3, Section 5.2).

Pushes a target bound top-down through the predicate's syntax tree: each
node splits its bound among its children -- as loosely as their repair
bounds allow -- so that any child fixes within their target bounds compose
into a predicate within the node's bound (Lemma 5.4).  Sibling repair sites
under the same AND/OR parent are merged into one combined site, fixed via
``MinFix``, and the resulting clauses are distributed back to the original
sites by syntactic similarity.
"""

from __future__ import annotations

from repro.core.bounds import create_bounds
from repro.core.minfix import min_fix, min_fix_pos
from repro.core.table_mapping import jaccard
from repro.logic.formulas import And, FALSE, Not, Or, TRUE, conj, disj, neg
from repro.logic.paths import paths_under


def derive_fixes(predicate, sites, target, solver, context=()):
    """Compute fixes for ``sites`` making ``predicate`` equivalent to target.

    ``sites`` are paths into ``predicate``.  Returns {path: fix_formula}.
    Precondition (checked by the caller via ``CreateBounds``): the target
    lies within the repair bounds of the sites.
    """
    return _derive(predicate, list(sites), target, target, solver, context)


def _derive(node, sites, lower, upper, solver, context):
    if () in sites:
        return {(): min_fix(lower, upper, solver, context)}
    if node.is_atomic() or not node.children():
        return {}
    if isinstance(node, Not):
        child_fixes = _derive(
            node.child,
            paths_under(sites, (0,)),
            neg(upper),
            neg(lower),
            solver,
            context,
        )
        return {(0,) + path: fix for path, fix in child_fixes.items()}
    if not isinstance(node, (And, Or)):
        raise TypeError(f"unexpected formula node {node!r}")

    is_and = isinstance(node, And)
    children = node.children()
    child_sites = [paths_under(sites, (i,)) for i in range(len(children))]
    child_bounds = [
        create_bounds(child, child_sites[i]) for i, child in enumerate(children)
    ]

    # Children that are themselves repair sites get merged into one combined
    # site ``r`` with repair bound [FALSE, TRUE].
    repaired = [i for i in range(len(children)) if (i,) in sites]
    other = [i for i in range(len(children)) if (i,) not in sites]

    members = list(other)
    if repaired:
        members.append("r")

    fixes = {}
    for member in members:
        rest_lowers, rest_uppers = [], []
        for peer in members:
            if peer == member:
                continue
            if peer == "r":
                rest_lowers.append(FALSE)
                rest_uppers.append(TRUE)
            else:
                rest_lowers.append(child_bounds[peer][0])
                rest_uppers.append(child_bounds[peer][1])
        combine = conj if is_and else disj
        rest_lower = combine(*rest_lowers) if rest_lowers else (TRUE if is_and else FALSE)
        rest_upper = combine(*rest_uppers) if rest_uppers else (TRUE if is_and else FALSE)

        if member == "r":
            own_lower, own_upper = FALSE, TRUE
        else:
            own_lower, own_upper = child_bounds[member]

        if is_and:
            target_lower = lower
            target_upper = conj(own_upper, disj(upper, neg(rest_upper)))
        else:
            target_lower = disj(own_lower, conj(lower, neg(rest_lower)))
            target_upper = upper

        if member == "r":
            if is_and:
                combined_fix = min_fix_pos(target_lower, target_upper, solver, context)
            else:
                combined_fix = min_fix(target_lower, target_upper, solver, context)
            originals = {i: children[i] for i in repaired}
            distributed = distribute_fixes(combined_fix, originals, is_and)
            for i, fix in distributed.items():
                fixes[(i,)] = fix
        else:
            if not child_sites[member]:
                continue  # nothing to repair below this child
            child_fixes = _derive(
                children[member],
                child_sites[member],
                target_lower,
                target_upper,
                solver,
                context,
            )
            for path, fix in child_fixes.items():
                fixes[(member,) + path] = fix
    return fixes


def distribute_fixes(combined_fix, originals, is_and):
    """``DistributeFixes``: split a combined fix among sibling sites.

    ``originals`` maps child index -> the original subtree at that site.
    The combined fix is decomposed into clauses (CNF conjuncts under an AND
    parent, DNF disjuncts under an OR parent); each clause is assigned to
    the site whose original subtree it is syntactically most similar to.
    Sites receiving no clause get the neutral element (TRUE under AND,
    FALSE under OR).
    """
    indices = sorted(originals)
    if len(indices) == 1:
        return {indices[0]: combined_fix}

    clauses = _split_clauses(combined_fix, is_and)
    assigned = {i: [] for i in indices}
    signatures = {i: _atom_signature(originals[i]) for i in indices}
    cursor = 0
    for clause in clauses:
        clause_sig = _atom_signature(clause)
        best, best_score = None, -1.0
        for i in indices:
            score = jaccard(clause_sig, signatures[i])
            if score > best_score:
                best, best_score = i, score
        if best_score <= 0.0:
            best = indices[cursor % len(indices)]  # round-robin tie-break
            cursor += 1
        assigned[best].append(clause)

    neutral = TRUE if is_and else FALSE
    combine = conj if is_and else disj
    return {
        i: (combine(*clauses_i) if clauses_i else neutral)
        for i, clauses_i in assigned.items()
    }


def _split_clauses(formula, is_and):
    if is_and and isinstance(formula, And):
        return list(formula.operands)
    if not is_and and isinstance(formula, Or):
        return list(formula.operands)
    return [formula]


def _atom_signature(formula):
    from repro.logic.terms import Const

    out = set()
    for atom in formula.atoms():
        out.add(str(atom))
        out.add(str(atom.negated()))
        out.add(f"op:{atom.op}")
        out.add(f"op:{atom.negated().op}")
        for var in atom.left.variables() | atom.right.variables():
            out.add(var.name)
        for side in (atom.left, atom.right):
            if isinstance(side, Const):
                out.add(f"const:{side}")
    return out
