"""Error taxonomy shared by all modules.

Every domain failure raises a subclass of ArrangementError carrying a
machine-readable payload dict, so the CLI can emit structured errors.
"""


class ArrangementError(Exception):
    """Base class for all domain errors."""

    def __init__(self, message, **payload):
        super().__init__(message)
        self.payload = payload

    def as_dict(self):
        return {"type": type(self).__name__, "message": str(self), **self.payload}


class BadShape(ArrangementError):
    """Input dimensions violate n > m > 1 or matrix shape constraints."""


class BadRational(ArrangementError):
    """A value is not an exact rational 'p' or 'p/q' with q != 0."""


class BadArtifact(ArrangementError):
    """A JSON artifact lacks a required field or has the wrong layout."""


class DependentRows(ArrangementError):
    """Some subset of at most m rows is linearly dependent."""


class LengthMismatch(ArrangementError):
    """A vector has the wrong length for its arrangement."""


class GivesUp(ArrangementError):
    """Rejection sampling exceeded its attempt limit."""


class BadSubsetSize(ArrangementError):
    """A collection member is not an (m+1)-subset of {1..n}."""


class NotClosed(ArrangementError):
    """Operation requires a concurrency closed collection."""


class TooLarge(ArrangementError):
    """Instance exceeds the configured enumeration limits."""


class OddRegionCount(ArrangementError):
    """Central arrangement produced an odd region count (upstream bug)."""


class UnpairedChamber(ArrangementError):
    """A chamber's antipode is missing from the catalog (upstream bug)."""


class CountMismatch(ArrangementError):
    """An enumeration disagrees with its Zaslavsky count (upstream bug)."""


class NotGeneric(ArrangementError):
    """Arrangement has a degenerate incidence (m+1 hyperplanes concurrent)."""


class WrongShape(ArrangementError):
    """Operation restricted to specific (n, m) was called outside it."""


class UnsupportedDimension(ArrangementError):
    """Operation implemented only for m = 2 was called with m > 2."""


class NotAdjacent(ArrangementError):
    """The two chambers do not share a facet."""


class NotInCatalog(ArrangementError):
    """Sign vector not present in the supplied catalog."""
