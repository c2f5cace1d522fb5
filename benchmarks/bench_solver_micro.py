"""Micro-benchmarks for the solver stack: SAT core, SMT facade, MinFix.

Times the solver-layer kernels and writes the results to
``BENCH_solver.json`` at the repository root (ops/sec per kernel)::

    PYTHONPATH=src python benchmarks/bench_solver_micro.py

The conjunctive-query SAT kernel is also run against a faithful copy of
the seed recursive DPLL (kept below as ``SeedDpllSolver``) and the speedup
of the CDCL engine over it is reported.

These are diagnostics, not gates: SAT search is under 0.5% of every
end-to-end grading workload (``perfbench/``), so the kernels do not
predict end-to-end time, and ``repro perfdiff`` tracks them ungated.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.core.minfix import map_atom_preds, min_fix
from repro.logic.formulas import Comparison, conj, disj
from repro.logic.terms import add, const, intvar
from repro.solver import Solver
from repro.solver.sat import SatSolver

#: Output path (redirected by ``repro perfdiff`` via ``$BENCH_OUT_DIR`` so
#: fresh runs never clobber the committed file).
OUT_PATH = pathlib.Path(
    os.environ.get("BENCH_OUT_DIR") or pathlib.Path(__file__).parent.parent
) / "BENCH_solver.json"


# ----------------------------------------------------------------------
# Seed baseline: the pre-CDCL recursive DPLL, verbatim semantics
# ----------------------------------------------------------------------


class SeedDpllSolver:
    """The seed's recursive, clause-rescanning DPLL (reference baseline)."""

    def __init__(self):
        self._clauses = []
        self._num_vars = 0

    def ensure_vars(self, count):
        self._num_vars = max(self._num_vars, count)

    def add_clause(self, literals):
        clause = sorted(set(literals), key=abs)
        for lit in clause:
            self.ensure_vars(abs(lit))
        for i in range(len(clause) - 1):
            if clause[i] == -clause[i + 1]:
                return
        self._clauses.append(clause)

    def solve(self):
        result = self._dpll({})
        if result is None:
            return None
        for var in range(1, self._num_vars + 1):
            result.setdefault(var, False)
        return result

    def _dpll(self, assignment):
        assignment = dict(assignment)
        while True:
            status, unit_lits = self._propagate(assignment)
            if status == "conflict":
                return None
            if not unit_lits:
                break
            for lit in unit_lits:
                assignment[abs(lit)] = lit > 0
        branch_var = self._pick_branch(assignment)
        if branch_var is None:
            return assignment
        for value in (True, False):
            trial = dict(assignment)
            trial[branch_var] = value
            result = self._dpll(trial)
            if result is not None:
                return result
        return None

    def _propagate(self, assignment):
        units = []
        for clause in self._clauses:
            unassigned = None
            satisfied = False
            count_unassigned = 0
            for lit in clause:
                var = abs(lit)
                if var in assignment:
                    if assignment[var] == (lit > 0):
                        satisfied = True
                        break
                else:
                    unassigned = lit
                    count_unassigned += 1
            if satisfied:
                continue
            if count_unassigned == 0:
                return "conflict", []
            if count_unassigned == 1:
                units.append(unassigned)
        chosen = {}
        for lit in units:
            var = abs(lit)
            if var in chosen and chosen[var] != (lit > 0):
                return "conflict", []
            chosen[var] = lit > 0
        return "ok", [v if val else -v for v, val in chosen.items()]

    def _pick_branch(self, assignment):
        counts = {}
        for clause in self._clauses:
            satisfied = any(
                abs(lit) in assignment and assignment[abs(lit)] == (lit > 0)
                for lit in clause
            )
            if satisfied:
                continue
            for lit in clause:
                var = abs(lit)
                if var not in assignment:
                    counts[var] = counts.get(var, 0) + 1
        if counts:
            return max(counts, key=counts.get)
        return None


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------

NUM_ATOMS = 7  # free atom variables enumerated by blocking clauses
CHAIN = 40  # implication chain of Tseitin-style auxiliaries


def _conjunctive_clauses():
    """CNF shaped like a Tseitin-encoded conjunctive WHERE.

    ``NUM_ATOMS`` free atom variables plus a unit-propagation chain of
    auxiliary variables that every model must re-derive, mirroring the
    skeleton clauses of ``smt._solve``.
    """
    base = NUM_ATOMS
    clauses = [[base + 1]]
    for i in range(1, CHAIN):
        clauses.append([-(base + i), base + i + 1])
    return clauses


def sat_conjunctive_kernel(solver_cls):
    """The DPLL(T) inner loop: enumerate every atom model via blocking.

    Returns the number of solve() calls made (models + the final UNSAT).
    """
    solver = solver_cls()
    solver.ensure_vars(NUM_ATOMS + CHAIN)
    for clause in _conjunctive_clauses():
        solver.add_clause(clause)
    calls = 0
    while True:
        calls += 1
        model = solver.solve()
        if model is None:
            break
        solver.add_clause(
            [-v if model[v] else v for v in range(1, NUM_ATOMS + 1)]
        )
    expected = 2**NUM_ATOMS + 1
    assert calls == expected, f"enumerated {calls}, expected {expected}"
    return calls


A, B, C, D, E, F = (intvar(n) for n in "ABCDEF")
_CHAIN_VARS = (A, B, C, D, E, F)


def smt_transitivity_kernel():
    """Fresh-solver UNSAT check of a 6-variable `<` cycle (theory-driven)."""
    solver = Solver()
    cycle = [
        Comparison("<", _CHAIN_VARS[i], _CHAIN_VARS[(i + 1) % len(_CHAIN_VARS)])
        for i in range(len(_CHAIN_VARS))
    ]
    assert solver.is_unsatisfiable(conj(*cycle))
    return 1


def minfix_kernel():
    """One MinFix call over a 4-atom bound (truth table + primes + Petrick)."""
    solver = Solver()
    atoms = [
        Comparison(">", A, const(5)),
        Comparison("<", B, const(3)),
        Comparison(">=", C, const(0)),
        Comparison("<>", D, const(7)),
    ]
    lower = conj(*atoms)
    upper = atoms[0] | atoms[1] | atoms[2] | atoms[3]
    min_fix(lower, upper, solver)
    return 1


def minfix_large_kernel():
    """One MinFix call over a 6-atom bound (64-row truth table + primes)."""
    solver = Solver()
    atoms = [
        Comparison(">", A, const(5)),
        Comparison("<", B, const(3)),
        Comparison(">=", C, const(0)),
        Comparison("<>", A, const(7)),
        Comparison(">", B, const(-4)),
        Comparison("<=", C, const(9)),
    ]
    lower = conj(*atoms)
    upper = disj(*atoms)
    min_fix(lower, upper, solver)
    return 1


def map_atom_preds_kernel():
    """Atom dedup across syntactic variants."""
    solver = Solver()
    variants = [
        Comparison("=", A, B),
        Comparison("=", add(A, const(1)), add(B, const(1))),
        Comparison("<>", A, B),
        Comparison("<", A, B),
        Comparison(">", B, A),
        Comparison(">=", A, B),
        Comparison(">", C, const(2)),
        Comparison("<=", C, const(2)),
    ]
    mapping = map_atom_preds([conj(*variants[:4]), conj(*variants[4:])], solver)
    assert mapping.num_vars <= 4
    return 1


def _time_kernel(fn, min_seconds=0.6):
    """Run ``fn`` repeatedly for ~min_seconds; return (ops/sec, reps)."""
    fn()  # warm up (imports, caches outside the measured units)
    reps = 0
    start = time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return reps / elapsed, reps


def main():
    results = {}

    new_ops, _ = _time_kernel(lambda: sat_conjunctive_kernel(SatSolver))
    seed_ops, _ = _time_kernel(lambda: sat_conjunctive_kernel(SeedDpllSolver))
    speedup = new_ops / seed_ops
    results["sat_conjunctive"] = {
        "description": "blocking-clause model enumeration, "
        f"{NUM_ATOMS} atoms + {CHAIN}-step aux chain",
        "ops_per_sec": round(new_ops, 3),
        "seed_dpll_ops_per_sec": round(seed_ops, 3),
        "speedup_vs_seed": round(speedup, 2),
    }

    for name, fn in [
        ("smt_transitivity", smt_transitivity_kernel),
        ("minfix_small", minfix_kernel),
        ("minfix_large", minfix_large_kernel),
        ("map_atom_preds", map_atom_preds_kernel),
    ]:
        ops, _ = _time_kernel(fn)
        results[name] = {"description": fn.__doc__.strip().splitlines()[0],
                         "ops_per_sec": round(ops, 3)}

    for name, entry in results.items():
        line = f"  {name}: {entry['ops_per_sec']:.1f} ops/s"
        if "speedup_vs_seed" in entry:
            line += (
                f"  (seed DPLL {entry['seed_dpll_ops_per_sec']:.1f} ops/s, "
                f"{entry['speedup_vs_seed']:.1f}x speedup)"
            )
        print(line)

    payload = {
        "python": sys.version.split()[0],
        "kernels": results,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
