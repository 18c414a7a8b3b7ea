"""Exception types shared across the toolkit.

Every error raised by citenet derives from :class:`CitenetError`, so callers
(notably the CLI) can catch one type and turn it into a diagnostic line.
"""

from __future__ import annotations


class CitenetError(Exception):
    """Base class for all citenet errors."""


class EdgeListParseError(CitenetError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class SidecarError(CitenetError):
    """A persisted matrix's sidecar is malformed or does not match its CSV."""


class YearMismatchError(CitenetError):
    """Two matrices with different years cannot be merged."""


class UnknownJournalError(CitenetError):
    """A journal or node id was not found in the matrix, member set or degrees."""


class IsolatedSeedError(CitenetError):
    """The seed journal has no citations in the requested direction."""


class ConvergenceError(CitenetError):
    """Power iteration failed to converge; carries the iteration count."""

    def __init__(self, iterations: int, residual: float) -> None:
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"power iteration did not converge after {iterations} iterations "
            f"(last step size {residual:.3e})"
        )
