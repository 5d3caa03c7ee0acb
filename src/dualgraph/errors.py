"""Exception hierarchy shared by the whole package.

DomainError subclasses signal that an operation was called outside its
mathematical domain (CLI exit code 1).  ParseError signals malformed textual
input (exit code 2).  InternalDefect signals a violated invariant that should
be impossible by theory; the CLI reports it as a library defect (exit code 4).
"""


class DualGraphError(Exception):
    pass


class DomainError(DualGraphError):
    pass


class NotContractibleCurve(DomainError):
    """Blow-down target does not have self-intersection -1."""


class WouldBreakChain(DomainError):
    """Blow-down target has degree >= 3."""


class WouldCreateCycle(DomainError):
    """Blow-down would identify two already adjacent curves (non-SNC)."""


class NotMinimalResolutionGraph(DomainError):
    """A vertex with self-intersection > -2 where all weights must be <= -2."""


class NotContractible(DomainError):
    """The intersection matrix is not negative definite."""


class OutOfScopeBoundary(DomainError):
    """The marked curve does not have self-intersection -1."""


class InvalidFamilyParams(DomainError):
    """A family parameter violates its constraint; the message names it."""


class ParseError(DualGraphError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class InternalDefect(DualGraphError):
    """An invariant that theory makes impossible was violated."""
