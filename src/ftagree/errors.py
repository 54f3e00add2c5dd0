"""Exception types shared across the package.

FtagreeError: the base of every error below.
TopologyError: a bad topology: no vertex, or a bad edge, weight or degree sum.
ScenarioSyntaxError: malformed scenario text; carries the line number.
DisconnectedTopology: a disconnected graph, for which no time bound exists.
NumericalBlowup: a value that overflows, or is not finite where it must be.
ValidationError: any other invalid argument or scenario value.

The CLI exits 3 on DisconnectedTopology and 2 on every other error.
"""


class FtagreeError(Exception):
    """Base class for all package-specific errors."""


class TopologyError(FtagreeError, ValueError):
    pass


class DisconnectedTopology(FtagreeError):
    pass


class NumericalBlowup(FtagreeError, RuntimeError):
    pass


class ScenarioSyntaxError(FtagreeError, ValueError):
    """Malformed scenario text. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(FtagreeError, ValueError):
    """Invalid content that is no topology fault: a scenario value (raised
    when a Scenario or ProtocolSpec is built) or a library argument."""
