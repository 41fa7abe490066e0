"""Exception types shared across the package."""


class CoveringError(Exception):
    """Base class for every error raised by this package."""


class InvalidUniverse(CoveringError):
    """Universe is empty or its labels are not pairwise distinct."""


class UniverseTooLarge(CoveringError):
    """Universe exceeds one of the oracle's caps: exhaustive enumeration
    above 5 elements or the preimage search above 4."""


class EmptyBlock(CoveringError):
    """A covering block must be a nonempty subset."""


class UnknownElement(CoveringError):
    """An element label does not belong to the universe."""


class NotACover(CoveringError):
    """The union of the supplied blocks misses part of the universe."""


class DuplicateBlock(CoveringError):
    """Two identical subsets were supplied; a covering is a set of blocks."""


class BlockNotInCovering(CoveringError):
    """The given block is not a member of the covering."""


class FileFormatError(CoveringError):
    """A covering file is structurally malformed (wrong keys or types)."""
