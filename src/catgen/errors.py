"""Exception hierarchy.

Everything raised on bad data or failed numerics derives from CatgenError so
the CLI can map it to exit code 2; usage errors are handled by argparse and
exit with 1.
"""


class CatgenError(Exception):
    """Base class for all domain errors."""


class DataFormatError(CatgenError):
    """A file that cannot be read, parsed or written: ragged rows, non-numeric
    cells, duplicate ids, missing checkpoint entries, a missing output directory."""


class EmptyResultError(CatgenError):
    """An operation filtered away everything."""


class DegenerateInputError(CatgenError):
    """Constant or otherwise information-free input where variation is required."""


class ShapeMismatchError(CatgenError):
    """Array dimensions do not agree with the declared contract."""


class NumericFailureError(CatgenError):
    """Non-finite values appeared where finite numbers are guaranteed."""


class ScheduleMismatchError(CatgenError):
    """Checkpoint was trained under a different diffusion schedule."""


class UnknownGeneError(CatgenError):
    """A requested gene id is not present in the given matrix."""


class ConfigError(CatgenError):
    """Unknown or badly typed configuration key."""


class NotOnTapeError(CatgenError):
    """A gradient was requested for a parameter the loss never touched."""
