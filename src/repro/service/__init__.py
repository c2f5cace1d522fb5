"""Service layer: long-lived grading sessions, caching, batching, HTTP.

The paper's headline use case is classroom grading: many students submit
wrong queries against the *same* reference query.  The one-shot CLI pays
full parse/resolve/solver cost per submission; this package amortizes it:

* :mod:`repro.service.session` -- an :class:`AssignmentSession` parses the
  target once and reuses one persistent :class:`~repro.solver.Solver`
  (learned clauses, literal caches) across every submission.
* :mod:`repro.service.cache` -- a bounded LRU artifact cache keyed by the
  canonical (alias-renamed) form of the submission, so identical and
  alpha-equivalent wrong answers are served memoized reports.
* :mod:`repro.service.batch` -- a batch grader that grades each *unique*
  canonical submission once in one session, each under its own deadline
  when asked, and serves every duplicate from the cache.
* :mod:`repro.service.server` -- a stdlib ``ThreadingHTTPServer`` JSON API
  (``POST /assignments``, ``POST /grade``, ``POST /witness``,
  ``GET /stats``) with admission control, read timeouts, and graceful
  drain.
* :mod:`repro.service.deadline` / :mod:`repro.service.faults` -- the
  fault-tolerance substrate: cooperative time budgets threaded through
  the pipeline and solver, and deterministic named fault points for
  chaos testing (see ``docs/service.md``, "Fault tolerance").

Wrong submissions can additionally be served a *counterexample witness*
(``witness=True`` / ``POST /witness``): a tiny executor-verified database
instance on which the submission and the reference query visibly disagree
(see :mod:`repro.witness`), cached alongside the hint reports by
canonical form.

Attribute access is lazy (PEP 562): ``deadline``/``faults`` are imported
by :mod:`repro.core.pipeline` and the solver facade, and resolving them
must not drag in the heavy session/server modules (which import the
pipeline back -- an import cycle otherwise).
"""

from __future__ import annotations

# name -> submodule that defines it; resolved on first attribute access.
_EXPORTS = {
    "ArtifactCache": "cache",
    "AssignmentSession": "session",
    "BatchResult": "batch",
    "Deadline": "deadline",
    "DeadlineExceeded": "deadline",
    "FAULTS": "faults",
    "FaultRegistry": "faults",
    "GradeError": "batch",
    "GradeResult": "session",
    "HintRequestHandler": "server",
    "HintService": "server",
    "canonical_key": "cache",
    "canonicalize": "cache",
    "format_report": "session",
    "grade_batch": "batch",
    "make_server": "server",
    "serve": "server",
    "stalled_client_socket": "faults",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
