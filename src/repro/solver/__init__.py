"""SMT solver substrate: SAT core + arithmetic/string theories + facade."""

from repro.solver.smt import Solver, TheoryModel

__all__ = ["Solver", "TheoryModel"]
