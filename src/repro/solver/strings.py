"""Equality + LIKE theory for string-typed terms.

Implements a union-find over string terms with constant propagation:
equalities merge classes, disequalities and LIKE atoms are checked against
class representatives.  Sound for UNSAT; may report SAT for exotic LIKE
combinations it cannot refute (acceptable -- see DESIGN.md).

:func:`find_model` additionally produces a concrete assignment (term ->
str): each equivalence class takes its pinned constant if it has one,
else an instantiation of its positive LIKE patterns, else a fresh token,
always checked against the class's disequalities and negative patterns.
The witness subsystem turns these into concrete column values.
"""

from __future__ import annotations

from repro.logic.evaluate import sql_like
from repro.logic.terms import Const


class UnionFind:
    """Classic union-find keyed by hashable items."""

    def __init__(self):
        self._parent = {}

    def find(self, item):
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def same(self, a, b):
        return self.find(a) == self.find(b)


def _pattern_matches_everything(pattern):
    return pattern != "" and all(ch == "%" for ch in pattern)


def check_strings(equalities, disequalities, likes):
    """Decide a conjunction of string atoms.

    ``equalities``/``disequalities``: iterables of (term, term) pairs.
    ``likes``: iterable of (term, pattern_string, positive_bool).
    Returns True if the conjunction is (believed) satisfiable, False if it
    is definitely unsatisfiable.
    """
    uf = UnionFind()
    for left, right in equalities:
        uf.union(left, right)

    # Wildcard-free LIKE is just equality with a constant.
    residual_likes = []
    for term, pattern, positive in likes:
        if positive and "%" not in pattern and "_" not in pattern:
            uf.union(term, Const.of(pattern))
        else:
            residual_likes.append((term, pattern, positive))

    # Each class may contain at most one distinct constant value.
    class_const = {}
    for item in list(uf._parent):
        if isinstance(item, Const):
            root = uf.find(item)
            if root in class_const and class_const[root].value != item.value:
                return False
            class_const.setdefault(root, item)

    for left, right in disequalities:
        if uf.same(left, right):
            return False
        lc = class_const.get(uf.find(left))
        rc = class_const.get(uf.find(right))
        if lc is not None and rc is not None and lc.value == rc.value:
            return False

    positive_patterns = {}
    for term, pattern, positive in residual_likes:
        root = uf.find(term)
        const = class_const.get(root)
        if const is not None:
            if sql_like(const.value, pattern) != positive:
                return False
            continue
        # Every LIKE pattern matches some string (% as "", _ as any
        # character), so on its own a positive pattern is satisfiable.
        if positive:
            positive_patterns.setdefault(root, []).append(pattern)
        elif _pattern_matches_everything(pattern):
            return False

    # Conflicting positive patterns on the same class: only the cheap check
    # of identical-prefix/suffix wildcard-free fragments is attempted; when
    # unsure we report SAT (sound for Qr-Hint's usage).
    for patterns in positive_patterns.values():
        literal_full = [p for p in patterns if "%" not in p and "_" not in p]
        if len(set(literal_full)) > 1:
            return False
    return True


# ----------------------------------------------------------------------
# Model extraction
# ----------------------------------------------------------------------

_FILLERS = ("", "x", "z", "x1", "x2", "zz", "q9")


def _instantiate(pattern, filler):
    """One concrete string matching ``pattern`` (``%``->filler, ``_``->a)."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(filler)
        elif ch == "_":
            out.append("a")
        else:
            out.append(ch)
    return "".join(out)


def find_model(equalities, disequalities, likes):
    """A satisfying assignment {term: str}, or None.

    Exactly as optimistic as :func:`check_strings`: whenever the checker
    would report SAT, this tries to realize a model, giving up (None) only
    on genuinely conflicting pattern combinations it cannot instantiate.
    """
    uf = UnionFind()
    terms = set()
    for left, right in equalities:
        uf.union(left, right)
        terms.update((left, right))
    for left, right in disequalities:
        terms.update((left, right))

    residual_likes = []
    for term, pattern, positive in likes:
        terms.add(term)
        if positive and "%" not in pattern and "_" not in pattern:
            const = Const.of(pattern)
            uf.union(term, const)
            terms.add(const)
        else:
            residual_likes.append((term, pattern, positive))

    class_const = {}
    for item in list(uf._parent) + [t for t in terms if isinstance(t, Const)]:
        if isinstance(item, Const):
            root = uf.find(item)
            if root in class_const and class_const[root].value != item.value:
                return None
            class_const.setdefault(root, item)

    positive_patterns = {}
    negative_patterns = {}
    for term, pattern, positive in residual_likes:
        root = uf.find(term)
        target = positive_patterns if positive else negative_patterns
        target.setdefault(root, []).append(pattern)

    diseq_roots = []
    for left, right in disequalities:
        left_root, right_root = uf.find(left), uf.find(right)
        if left_root == right_root:
            return None
        diseq_roots.append((left_root, right_root))

    values = {}  # class root -> chosen string

    def admissible(root, value):
        for pattern in positive_patterns.get(root, ()):
            if not sql_like(value, pattern):
                return False
        for pattern in negative_patterns.get(root, ()):
            if sql_like(value, pattern):
                return False
        for a, b in diseq_roots:
            other = b if a == root else (a if b == root else None)
            if other is None:
                continue
            if other in values and values[other] == value:
                return False
            if other in class_const and str(class_const[other].value) == value:
                return False
        return True

    # Pinned classes first (no choice), then free classes deterministically.
    roots = sorted({uf.find(t) for t in terms},
                   key=lambda r: (r not in class_const, str(r)))
    fresh = 0
    for root in roots:
        if root in class_const:
            value = str(class_const[root].value)
            if not admissible(root, value):
                return None
            values[root] = value
            continue
        patterns = positive_patterns.get(root)
        if patterns:
            candidates = [_instantiate(patterns[0], f) for f in _FILLERS]
        else:
            candidates = [f"w{fresh + i}" for i in range(len(_FILLERS))]
            fresh += 1
        for value in candidates:
            if admissible(root, value):
                values[root] = value
                break
        else:
            return None

    return {term: values[uf.find(term)] for term in terms}
