"""Exception types shared across the toolkit, one per CLI exit code, and the deadline check.

``main`` exits 2 on ``QOracleError``, 3 on ``VerificationFailed`` and 4 on
``TooWide``, ``GateLimitExceeded`` and ``SynthesisTimeout``; the bench
harness and the benchmark scripts catch the exit-4 classes by name.
"""
import time


class QOracleError(Exception):
    """A table, netlist, query or call the toolkit refuses (exit 2)."""


class TooWide(QOracleError):
    """An expansion, embedding or simulation would exceed its width limit (exit 4)."""


class GateLimitExceeded(QOracleError):
    """Synthesis was aborted after emitting more gates than allowed (exit 4)."""


class SynthesisTimeout(QOracleError):
    """Synthesis exceeded its wall-clock budget (exit 4)."""


class VerificationFailed(QOracleError):
    """The synthesized circuit disagreed with its source table (exit 3).

    ``report`` is the failing ``sim.VerificationReport``.
    """

    def __init__(self, report):
        super().__init__(report.summary())
        self.report = report


def check_deadline(deadline: float | None, message: str, *args) -> None:
    """Raise ``SynthesisTimeout(message % args)`` once ``time.monotonic()`` passes ``deadline``.

    ``deadline`` None never expires.  The message is formatted only when it
    raises, so a check inside a hot loop costs one clock read.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise SynthesisTimeout(message % args)
