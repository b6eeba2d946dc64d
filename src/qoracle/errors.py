"""Exception types shared across the toolkit."""


class QOracleError(Exception):
    """Base class for all toolkit errors."""


# --- table parsing / construction -------------------------------------------

class MissingHeader(QOracleError):
    """A .pla file lacks the .i/.o declarations before its first cube."""


class UnknownDirective(QOracleError):
    """A .pla directive outside the supported subset was encountered."""


class IllegalChar(QOracleError):
    """A cube contains characters other than 0, 1 and -."""


class WidthMismatch(QOracleError):
    """A cube or declaration disagrees with the declared input/output widths."""


class TooWide(QOracleError):
    """An explicit expansion would exceed the configured width limit."""


class DuplicateDomain(QOracleError):
    """An integer value table lists the same domain value twice."""


class NegativeValue(QOracleError):
    """An integer value table lists a negative domain or range value."""


# --- embedding ----------------------------------------------------------------

class UnresolvedDontCare(QOracleError):
    """An operation requires a fully resolved table but don't-cares remain."""


class NotBijective(QOracleError):
    """A claimed permutation is not a bijection."""


# --- synthesis ----------------------------------------------------------------

class GateLimitExceeded(QOracleError):
    """Synthesis was aborted after emitting more gates than allowed."""


class SynthesisTimeout(QOracleError):
    """Synthesis exceeded its wall-clock budget."""


class NotLowered(QOracleError):
    """A metric requiring positive-polarity controls saw a negative control."""


# --- simulation / verification -------------------------------------------------

class NonClassicalGate(QOracleError):
    """The permutation simulator only accepts X/MCX gates."""


class RoleMismatch(QOracleError):
    """Circuit qubit roles do not line up with the table being verified."""


# --- Grover assembly ------------------------------------------------------------

class InvalidRank(QOracleError):
    """A card query used one of the unused rank codes."""


class BadOracleShape(QOracleError):
    """Grover assembly needs a domain-preserving oracle with one output qubit."""


# --- serialization ----------------------------------------------------------------

class NegativeControlPresent(QOracleError):
    """QASM emission requires a lowered (positive-control-only) circuit."""


class ParseError(QOracleError):
    """A serialized circuit netlist could not be decoded."""
