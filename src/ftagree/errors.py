"""Exception types shared across the package."""


class FtagreeError(Exception):
    """Base class for all package-specific errors."""


class TopologyError(FtagreeError, ValueError):
    pass


class IndexOutOfRange(TopologyError):
    pass


class SelfLoop(TopologyError):
    pass


class DuplicateEdge(TopologyError):
    pass


class NegativeWeight(TopologyError):
    pass


class AlphaOutOfRange(FtagreeError, ValueError):
    pass


class DimensionMismatch(FtagreeError, ValueError):
    pass


class DisconnectedTopology(FtagreeError):
    pass


class NotSymmetric(FtagreeError, ValueError):
    pass


class NotZeroSum(FtagreeError, ValueError):
    pass


class ProtocolMismatch(FtagreeError):
    pass


class NumericalBlowup(FtagreeError, RuntimeError):
    pass


class TimeBeyondSchedule(FtagreeError, ValueError):
    pass


class UnknownTopologyId(FtagreeError, KeyError):
    pass


class SearchSpaceTooLarge(FtagreeError, ValueError):
    pass


class ScenarioSyntaxError(FtagreeError, ValueError):
    """Malformed scenario text. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(FtagreeError, ValueError):
    """Invalid content: a scenario's (raised when a Scenario or ProtocolSpec
    is built) or a value passed to a bound, envelope or output function."""

