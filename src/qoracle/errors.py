"""Exception types shared across the toolkit, one per CLI exit code.

``main`` exits 2 on ``QOracleError``, 3 on ``VerificationFailed`` and 4 on
``TooWide``, ``GateLimitExceeded`` and ``SynthesisTimeout``; the bench
harness and the benchmark scripts catch the exit-4 classes by name.
"""


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
