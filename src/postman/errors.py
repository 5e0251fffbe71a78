"""Exception types shared across the toolkit.

Every domain error derives from PostmanError so callers (and the CLI) can
distinguish precondition violations from I/O or usage problems.
"""


class PostmanError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidArgumentError(PostmanError, ValueError):
    """Argument outside its range: a count below one, a negative weight, ..."""


class DisconnectedGraphError(PostmanError):
    """Operation requires a connected graph."""


class InfeasibleSpecError(PostmanError):
    """Rejection sampling exceeded the attempt cap for an ensemble spec."""


class TooLargeError(PostmanError):
    """Instance exceeds an enumeration guard."""


class NotEulerianError(PostmanError):
    """Circuit extraction requires even degrees and connectivity."""


class PenaltyTooSmallError(PostmanError):
    """QUBO penalty is below d, or too small (M_min >= 2p) to certify M_min."""


class OddCountNotEvenError(PostmanError):
    """Odd-degree node count must be even."""


class DegenerateD0Error(PostmanError):
    """No QUBO exists for a graph without odd-degree nodes."""


class DimensionMismatchError(PostmanError):
    """Configuration length does not match the model dimension."""


class IllegalAssignmentError(PostmanError):
    """Bit vector does not encode a legal pairing."""

    def __init__(self, message: str, nodes: tuple[int, ...] = ()):
        super().__init__(message)
        self.nodes = nodes


class ParseError(PostmanError):
    """Malformed input file; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class FaultOutOfRangeError(PostmanError):
    """Faulty qubit id outside the hardware graph."""


class DoesNotFitError(PostmanError):
    """Requested embedding does not fit on the target topology."""


class InvalidEmbeddingError(PostmanError):
    """Embedding failed validation against the logical model."""


class DisconnectedEmbeddingError(PostmanError):
    """Embedded subgraph is not connected."""


class NoGapError(PostmanError):
    """Spectrum has a single level; no gap is defined."""


class EmptySampleSetError(PostmanError):
    """Metric requires at least one read."""


class CombinationExplosionError(PostmanError):
    """Defect-combination scan would exceed the size guard."""
