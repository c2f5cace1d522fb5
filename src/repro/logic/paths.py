"""Tree addressing for formulas.

Repair sites (Definition 2) are subtrees of a predicate's syntax tree.  A
*path* is a tuple of child indices from the root; ``()`` addresses the root
itself.  This module provides subtree lookup, enumeration, disjointness
tests, and subtree replacement -- the plumbing used by ``RepairWhere``,
``CreateBounds``, and ``DeriveFixes``.
"""

from __future__ import annotations

from repro.logic.formulas import And, Not, Or


def node_at(formula, path):
    """Return the subtree of ``formula`` addressed by ``path``."""
    node = formula
    for index in path:
        node = node.children()[index]
    return node


def all_paths(formula):
    """All (path, subtree) pairs in pre-order."""
    out = []

    def walk(node, path):
        out.append((path, node))
        for i, child in enumerate(node.children()):
            walk(child, path + (i,))

    walk(formula, ())
    return out


def is_prefix(short, long):
    """True if ``short`` is a (non-strict) prefix of ``long``."""
    return len(short) <= len(long) and long[: len(short)] == short


def paths_disjoint(paths):
    """True if no path in the collection is an ancestor of another."""
    ordered = sorted(paths)
    for i in range(len(ordered) - 1):
        if is_prefix(ordered[i], ordered[i + 1]):
            return False
    return True


def paths_under(paths, prefix):
    """The subset of ``paths`` inside the subtree at ``prefix``, re-rooted."""
    return [p[len(prefix):] for p in paths if is_prefix(prefix, p)]


def replace_at(formula, replacements):
    """Replace each addressed subtree: ``replacements`` maps path -> Formula.

    Paths must be pairwise disjoint.  The surrounding tree structure is
    rebuilt verbatim (no flattening), so node identities outside the
    replaced sites are preserved.
    """
    if not paths_disjoint(replacements):
        raise ValueError("replacement paths must be disjoint")

    def rebuild(node, path):
        if path in replacements:
            return replacements[path]
        if not any(is_prefix(path, p) for p in replacements):
            return node
        if isinstance(node, Not):
            return Not(rebuild(node.child, path + (0,)))
        if isinstance(node, (And, Or)):
            new_children = tuple(
                rebuild(child, path + (i,))
                for i, child in enumerate(node.children())
            )
            return type(node)(new_children)
        raise ValueError(f"path descends into a leaf at {path}")

    return rebuild(formula, ())


def repairable_paths(formula):
    """Candidate repair-site paths: every node of the tree.

    The root is included (replacing the whole predicate is the trivial
    single-site repair of Example 6).
    """
    return [path for path, _ in all_paths(formula)]


def disjoint_path_sets(paths, size):
    """Yield all sets (tuples) of ``size`` pairwise-disjoint paths.

    Paths are emitted in lexicographic combination order, matching the
    deterministic exploration order of ``RepairWhere``.
    """
    ordered = sorted(paths)

    def extend(start, chosen):
        if len(chosen) == size:
            yield tuple(chosen)
            return
        for i in range(start, len(ordered)):
            candidate = ordered[i]
            if any(
                is_prefix(existing, candidate) or is_prefix(candidate, existing)
                for existing in chosen
            ):
                continue
            chosen.append(candidate)
            yield from extend(i + 1, chosen)
            chosen.pop()

    yield from extend(0, [])
