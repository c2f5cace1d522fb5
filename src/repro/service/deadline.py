"""Cooperative time budgets for the grading pipeline.

A :class:`Deadline` is a wall-clock budget created at request entry
(HTTP ``timeout_ms``, CLI ``--timeout-ms``) and threaded down through
:class:`repro.core.pipeline.QrHint` to the DPLL(T) solver loops, which
MinFix's truth tables also run through.  The deep layers poll it at a
cheap checkpoint (once per solver round) via
:meth:`Deadline.check`, which raises :class:`DeadlineExceeded` once the
budget is spent.  The pipeline catches the exception at stage
granularity and returns a best-effort *partial* report (stages graded so
far plus a coarse stage-level hint for the stage that ran out of time)
instead of hanging -- see ``docs/service.md`` ("Fault tolerance").

Design constraints:

* polls must be cheap: ``expired()`` is one ``monotonic()`` call and a
  compare, no locks, no allocation;
* this module must stay import-light (stdlib + ``repro.errors`` only) so
  the core pipeline and solver can import it without dragging the whole
  service package -- ``repro/service/__init__.py`` is lazy for the same
  reason.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ReproError

__all__ = ["Deadline", "DeadlineExceeded"]


class DeadlineExceeded(ReproError):
    """Raised by a checkpoint poll once a :class:`Deadline` has expired."""


@dataclass(frozen=True, slots=True)
class Deadline:
    """A wall-clock budget expressed as an absolute ``time.monotonic()`` instant.

    Immutable so it can be shared freely across pipeline stages, the
    solver facade, and worker threads without synchronisation.
    """

    #: Absolute ``time.monotonic()`` instant after which the budget is spent.
    expires_at: float

    @classmethod
    def after_ms(cls, budget_ms: float) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now."""
        return cls(expires_at=time.monotonic() + budget_ms / 1000.0)

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def remaining_ms(self) -> float:
        """Milliseconds left on the budget; ``0.0`` once expired."""
        return max(0.0, (self.expires_at - time.monotonic()) * 1000.0)

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent.

        ``where`` names the checkpoint (``"solver"``, polled once per
        DPLL(T) round, which MinFix's truth tables also run through; or a
        stage name) and is carried in the exception message so degraded
        reports can say which layer ran out of time.
        """
        if time.monotonic() >= self.expires_at:
            raise DeadlineExceeded(
                f"deadline exceeded at {where}" if where else "deadline exceeded"
            )
