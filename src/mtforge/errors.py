"""Exception types shared across the toolkit.

Everything here is a validation-style failure and maps to CLI exit code 1.
I/O problems are left to the built-in OSError family (exit code 2).
"""


class MTForgeError(Exception):
    """Base class for toolkit validation errors."""


class TableError(MTForgeError, ValueError):
    """A row of a TSV table or report is malformed, located at ``path:line``
    (line 0 when the fault is in the table as a whole)."""

    def __init__(self, path, line_no, reason):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class ManifestError(TableError):
    """A manifest file could not be parsed or disagrees with its shards."""


class DuplicateShardPathError(ManifestError):
    """The same shard path is listed twice in one manifest."""


class MalformedLineError(TableError):
    """A line of a text file or a command's output breaks the line rule, or
    holds the wrong number of tabs; ``shard_id`` is the ``path``."""

    @property
    def shard_id(self):
        return self.path


class AlreadyTaggedError(MTForgeError):
    """A sentence already carries a language-tag prefix."""


class UnsupportedDirectionError(MTForgeError):
    """A translator was asked for a direction it does not support."""


class UnknownDirectionError(MTForgeError):
    """A routing table has no entry for the requested direction."""


class DuplicateLanguageError(MTForgeError):
    """The same language code was supplied twice to a cipher translator."""


class EmptyPoolError(MTForgeError):
    """A corpus pool has positive mixture weight but no data."""


class DirectionSetMismatchError(MTForgeError):
    """Two score matrices do not cover the same direction set."""


class LengthMismatchError(MTForgeError):
    """Two sequences that must align line for line have different lengths:
    hypothesis and reference segments, or a langid sidecar and its shard."""


class EmptyCorpusError(MTForgeError):
    """An operation requires at least one segment."""


class EmptyMonolingualError(MTForgeError):
    """An augmentation plan needs a non-empty monolingual corpus."""


class EnglishInPairError(MTForgeError):
    """Dual-pseudo pairs must be between non-pivot languages."""


class NothingToDoError(MTForgeError):
    """A triangulation plan was requested without any new language."""


class InvalidScheduleError(MTForgeError):
    """A curriculum schedule contains a loosening transition."""

    def __init__(self, stage_pair, violations):
        msg = f"invalid transition {stage_pair}: " + "; ".join(violations)
        super().__init__(msg)
        self.stage_pair = stage_pair
        self.violations = list(violations)
