"""An incremental CDCL SAT solver over CNF clauses.

Clauses are lists of non-zero integers; a positive integer ``v`` is the
variable ``v``, a negative integer its negation (DIMACS convention).

The engine is a plain MiniSat-lineage CDCL loop, kept to what the lazy
SMT loop exercises:

* **flat clause arena** -- all clause literals live in one flat list; a
  clause is an integer offset (``cref``) to its first literal, with its
  size at ``arena[cref - 1]``.  Slots ``cref`` and ``cref + 1`` hold the
  two watched literals.  Clauses are never deleted, so a ``cref``
  recorded as a reason stays valid.  (A plain list rather than
  ``array('i')``: ``array`` re-boxes every indexed read into a fresh int
  object, which measures ~1.7x slower per probe.)
* **two watched literals with blockers** -- watcher lists are flat
  ``[cref, blocker, cref, blocker, ...]`` integer lists indexed by
  literal; propagation visits only the clauses whose watch just became
  false, and a true cached *blocker* skips a clause with one probe;
* **first-UIP conflict analysis** with non-chronological backjumping;
* **VSIDS branching** (a lazy max-heap of ``(-activity, var)`` that
  tolerates stale entries) and **phase saving** (default phase False);
* **incremental solving** -- clauses, learned clauses, VSIDS activity
  and saved phases persist across ``solve`` calls; a clause added between
  calls (the DPLL(T) loop's blocking clauses) restarts the search at
  level 0, and the saved phases steer it back towards the last model.
"""

from __future__ import annotations

from heapq import heappop, heappush

_ACTIVITY_DECAY = 0.95
_ACTIVITY_LIMIT = 1e100


class SatSolver:
    """Incremental CDCL solver (arena, watched literals, VSIDS, phases)."""

    def __init__(self):
        self._arena = []  # [size, lit0, .., litn-1] per clause; cref -> lit0
        self._num_vars = 0
        self._cap = 64  # allocated variable capacity of the literal maps
        self._assign = [None] * (2 * self._cap + 1)  # literal -> truth
        self._watchlists = [None] * (2 * self._cap + 1)  # lit -> flat pairs
        self._levels = [0]  # var -> decision level of the assignment
        self._reasons = [0]  # var -> antecedent cref (0 = none)
        self._phase = [False]  # var -> saved polarity
        self._activity = [0.0]  # var -> VSIDS activity
        self._heap = []  # lazy max-heap of (-activity, var)
        self._act_inc = 1.0
        self._trail = []  # assigned literals in assignment order
        self._trail_lim = []  # trail length at the start of each level
        self._qhead = 0  # propagation frontier into the trail
        self._pending = []  # unit literals awaiting top-level propagation
        self._unsat = False  # the database is unsatisfiable outright
        self._last_model = None  # {var: bool} of the last SAT solve
        self.stats = {
            "solve_calls": 0,
            "decisions": 0,
            "propagations": 0,
            "conflicts": 0,
            "learned_clauses": 0,
        }

    def model(self):
        """A copy of the most recent satisfying assignment, or None.

        Set when :meth:`solve` returns SAT and cleared by an UNSAT
        result.  Adding clauses does not invalidate it -- it describes
        the database as of the last solve.
        """
        return None if self._last_model is None else dict(self._last_model)

    def ensure_vars(self, count):
        if count <= self._num_vars:
            return
        if count > self._cap:
            self._cap = max(count, 2 * self._cap)
            for name in ("_assign", "_watchlists"):
                old = getattr(self, name)
                fresh = [None] * (2 * self._cap + 1)
                for var in range(1, self._num_vars + 1):
                    fresh[var] = old[var]
                    fresh[-var] = old[-var]
                setattr(self, name, fresh)
        watchlists = self._watchlists
        for var in range(self._num_vars + 1, count + 1):
            self._levels.append(0)
            self._reasons.append(0)
            self._phase.append(False)
            self._activity.append(0.0)
            watchlists[var] = []
            watchlists[-var] = []
            heappush(self._heap, (0.0, var))
        self._num_vars = count

    # ------------------------------------------------------------------
    # Clause addition
    # ------------------------------------------------------------------

    def add_clause(self, literals):
        """Add a clause; an empty clause makes the database UNSAT.

        Clauses may be added between ``solve`` calls: the solver first
        backtracks to level 0, keeping its watch lists, learned clauses,
        VSIDS activity and saved phases.  A clause satisfied at level 0 is
        dropped, and one with two or more unassigned literals is watched
        on the first two in clause order.  A unit clause waits in
        ``_pending`` for the next ``solve``; a clause every literal of
        which is false at level 0 makes the database UNSAT.  Literals
        false at level 0 stay in the body but are never watched.
        """
        if len(set(map(abs, literals))) != len(literals):
            # Duplicate literals or a tautology: normalise through a set.
            litset = set(literals)
            if len(set(map(abs, litset))) != len(litset):
                return  # tautology
            literals = list(litset)
        self.ensure_vars(max(map(abs, literals), default=0))
        self._backtrack(0)
        assign = self._assign
        free = []
        for lit in literals:
            value = assign[lit]
            if value:
                return  # satisfied at level 0
            if value is None:
                free.append(lit)
        if len(free) >= 2:
            w0, w1 = free[:2]
            self._attach([w0, w1] + [q for q in literals if q != w0 and q != w1])
        elif free:
            self._pending.append(free[0])
        else:
            self._unsat = True

    def _attach(self, literals):
        """Append a clause to the arena and watch its first two literals."""
        arena = self._arena
        arena.append(len(literals))
        ref = len(arena)
        arena.extend(literals)
        first, other = literals[0], literals[1]
        self._watchlists[first] += (ref, other)
        self._watchlists[other] += (ref, first)
        return ref

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(self):
        """Return a model as {var: bool}, or None if unsatisfiable.

        Clauses, learned clauses and saved phases persist across calls;
        the trail of a SAT result stays until :meth:`add_clause` (which
        leaves the solver at level 0) is called.
        """
        self.stats["solve_calls"] += 1
        self._last_model = None
        if self._unsat:
            return None
        while self._pending:
            if not self._enqueue(self._pending.pop()):
                self._unsat = True
                return None
        if self._propagate():  # only the pending units are unpropagated
            self._unsat = True
            return None
        return self._search()

    def _search(self):
        assign = self._assign
        phase = self._phase
        heap = self._heap
        trail = self._trail
        trail_lim = self._trail_lim
        stats = self.stats
        while True:
            conflict = self._propagate()
            if conflict:
                stats["conflicts"] += 1
                if not trail_lim:
                    # A conflict with no decisions at all: the DB is UNSAT.
                    self._unsat = True
                    return None
                self._act_inc /= _ACTIVITY_DECAY
                learned, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                self._learn(learned)
                continue
            num = self._num_vars
            if len(trail) == num:
                # Every variable is assigned, so the trail is the model.  It
                # stays until the next add_clause; phases are saved as it pops.
                self._last_model = dict(zip(range(1, num + 1), assign[1:num + 1]))
                return dict(self._last_model)
            var = heappop(heap)[1]
            while assign[var] is not None:
                var = heappop(heap)[1]
            stats["decisions"] += 1
            trail_lim.append(len(trail))
            self._enqueue(var if phase[var] else -var)

    # ------------------------------------------------------------------
    # Propagation / trail
    # ------------------------------------------------------------------

    def _enqueue(self, lit, reason=0):
        """Assign ``lit`` at the current level; its old value if assigned."""
        assign = self._assign
        value = assign[lit]
        if value is not None:
            return value
        assign[lit] = True
        assign[-lit] = False
        var = lit if lit > 0 else -lit
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason
        self._trail.append(lit)
        self.stats["propagations"] += 1
        return True

    def _propagate(self):
        """Propagate until fixpoint; return a conflicting cref or 0.

        A visited clause looks for a non-false body literal to move its
        watch to even when its other watch is already true: blocking-
        clause loops pile satisfied clauses onto the few literals that
        flip every model, and moving the watch parks each clause on a
        literal the search touches less often.  A clause that cannot move
        is unit, conflicting, or satisfied by its other watch, which then
        becomes the cached blocker.
        """
        assign = self._assign
        arena = self._arena
        levels = self._levels
        reasons = self._reasons
        watchlists = self._watchlists
        trail = self._trail
        depth = len(self._trail_lim)
        start = len(trail)
        qhead = self._qhead
        conflict = 0
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watchlists[false_lit]
            i = 0
            end = len(watchers)
            while i < end:
                if assign[watchers[i + 1]] is True:
                    i += 2  # blocker satisfied: clause already true
                    continue
                ref = watchers[i]
                first = arena[ref]
                if first == false_lit:
                    first = arena[ref + 1]
                    arena[ref] = first
                    arena[ref + 1] = false_lit
                for k in range(ref + 2, ref + arena[ref - 1]):
                    other = arena[k]
                    if assign[other] is not False:
                        arena[ref + 1] = other
                        arena[k] = false_lit
                        watchlists[other] += (ref, first)
                        break
                else:
                    value = assign[first]
                    if value is False:
                        conflict = ref  # both watches false
                        break
                    if value:
                        watchers[i + 1] = first  # cache the true watch
                    else:
                        assign[first] = True  # clause is unit
                        assign[-first] = False
                        var = first if first > 0 else -first
                        levels[var] = depth
                        reasons[var] = ref
                        trail.append(first)
                    i += 2
                    continue
                end -= 2  # watch moved: swap-remove from this list
                watchers[i] = watchers[end]
                watchers[i + 1] = watchers[end + 1]
                del watchers[end:]
            if conflict:
                break
        self._qhead = qhead
        self.stats["propagations"] += len(trail) - start
        return conflict

    def _backtrack(self, depth):
        """Pop every level above ``depth``, saving each popped phase."""
        trail_lim = self._trail_lim
        if len(trail_lim) <= depth:
            return
        trail = self._trail
        assign = self._assign
        phase = self._phase
        activity = self._activity
        heap = self._heap
        target = trail_lim[depth]
        for lit in trail[target:]:
            var = lit if lit > 0 else -lit
            assign[lit] = None
            assign[-lit] = None
            phase[var] = lit > 0
            heappush(heap, (-activity[var], var))
        del trail[target:]
        del trail_lim[depth:]
        self._qhead = len(trail)

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _analyze(self, conflict):
        """First-UIP analysis: the learned clause and its backjump level.

        Resolves the conflicting clause backward along the trail on the
        recorded antecedents until exactly one literal of the conflict
        level remains.  The learned clause is ``[-UIP] + rest`` with the
        deepest literal of ``rest`` in the second-watch slot, asserting at
        that literal's level.
        """
        arena = self._arena
        levels = self._levels
        reasons = self._reasons
        trail = self._trail
        current = len(self._trail_lim)
        seen = set()
        learned = [0]  # slot 0 becomes the asserting (negated UIP) literal
        counter = 0
        index = len(trail)
        ref = conflict
        start = 0  # the conflict clause contributes every literal
        while True:
            for k in range(ref + start, ref + arena[ref - 1]):
                q = arena[k]
                var = q if q > 0 else -q
                if var in seen or not levels[var]:
                    continue
                seen.add(var)
                self._bump(var)
                if levels[var] == current:
                    counter += 1
                else:
                    learned.append(q)
            while True:
                index -= 1
                p = trail[index]
                if (p if p > 0 else -p) in seen:
                    break
            counter -= 1
            if not counter:
                break
            ref = reasons[p if p > 0 else -p]
            start = 1  # antecedent slot 0 is the resolved literal itself
        learned[0] = -p
        if len(learned) == 1:
            return learned, 0
        deepest = max(
            range(1, len(learned)), key=lambda i: levels[abs(learned[i])]
        )
        learned[1], learned[deepest] = learned[deepest], learned[1]
        return learned, levels[abs(learned[1])]

    def _learn(self, learned):
        """Store the analyzed clause and assert its UIP literal."""
        self.stats["learned_clauses"] += 1
        if len(learned) == 1:
            self._enqueue(learned[0])
        else:
            self._enqueue(learned[0], self._attach(learned))

    def _bump(self, var):
        activity = self._activity
        bumped = activity[var] + self._act_inc
        activity[var] = bumped
        if bumped > _ACTIVITY_LIMIT:
            scale = 1.0 / _ACTIVITY_LIMIT
            for v in range(1, self._num_vars + 1):
                activity[v] *= scale
            self._act_inc *= scale
            bumped = activity[var]
        if self._assign[var] is None:
            heappush(self._heap, (-bumped, var))


def solve_cnf(clauses, num_vars=0):
    """One-shot convenience wrapper around :class:`SatSolver`."""
    solver = SatSolver()
    solver.ensure_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve()
