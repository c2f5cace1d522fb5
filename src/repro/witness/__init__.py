"""Counterexample witness subsystem: tiny databases that *show* the bug.

Qr-Hint's hints assert semantic divergence ("your WHERE is not equivalent
to the reference's") without demonstrating it.  This package materializes
the divergence: the satisfying models the DPLL(T) loop computes anyway
are concretized into tiny database instances -- a handful of rows -- on
which the wrong and reference queries return visibly different results.
Every witness is executor-verified and greedily shrunk before it is
emitted, so each hint becomes an executable, checkable artifact.

* :mod:`repro.witness.divergence` -- single-row divergence formulas
  (aggregates collapsed to scalars) for the solver-model path.
* :mod:`repro.witness.instance`  -- theory model -> concrete tuples, with
  seeded, constants-aware random fills for unconstrained columns.
* :mod:`repro.witness.verify`    -- attributes a divergence the engine
  confirmed to the earliest differing stage artifact.
* :mod:`repro.witness.shrink`    -- greedy tuple dropping under the
  divergence invariant (target: at most 3 rows per table).
* :mod:`repro.witness.build`     -- the orchestrator and the frozen
  :class:`~repro.witness.build.Witness` artifact the service layer caches.
"""

from repro.engine.diff import results_differ
from repro.witness.build import (
    MAX_ROWS_PER_TABLE,
    Witness,
    format_witness_lines,
    generate_witness,
    witness_divergence_sentence,
    witness_to_dict,
)
from repro.witness.divergence import divergence_formula, emits_single_row
from repro.witness.instance import build_instance, guided_generator
from repro.witness.shrink import shrink_instance
from repro.witness.verify import first_divergent_stage

__all__ = [
    "MAX_ROWS_PER_TABLE",
    "Witness",
    "build_instance",
    "divergence_formula",
    "emits_single_row",
    "first_divergent_stage",
    "format_witness_lines",
    "generate_witness",
    "guided_generator",
    "results_differ",
    "shrink_instance",
    "witness_divergence_sentence",
    "witness_to_dict",
]
