"""Exception types shared across the toolkit.

Everything here is a validation-style failure and maps to CLI exit code 1.
I/O problems are left to the built-in OSError family (exit code 2).
A failure that only needs its message raises MTForgeError itself; a class
is kept only when it carries fields beyond the message or some code
catches it by type.
"""


class MTForgeError(Exception):
    """Base class for toolkit validation errors."""


class TableError(MTForgeError, ValueError):
    """A row of a TSV table or report is malformed, located at ``path:line``."""

    def __init__(self, path, line_no, reason):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class MalformedLineError(TableError):
    """A line of a text file or a command's output breaks the line rule, or
    holds the wrong number of tabs."""


class InvalidScheduleError(MTForgeError):
    """A curriculum schedule contains a loosening transition."""

    def __init__(self, stage_pair, violations):
        msg = f"invalid transition {stage_pair}: " + "; ".join(violations)
        super().__init__(msg)
        self.stage_pair = stage_pair
        self.violations = list(violations)
