"""Exception hierarchy for the summary cache reproduction.

Every exception raised deliberately by this package derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors such as :class:`TypeError`.  This is
machine-enforced: lint rule SC005 (``python -m repro.lint``) rejects any
``raise`` of a bare builtin exception in library code.

Where a builtin type is the natural contract -- an out-of-range index
is an :class:`IndexError`, a bad parameter a :class:`ValueError` -- the
domain class *also* subclasses that builtin, so callers written against
either vocabulary keep working.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError, ValueError):
    """A component was constructed with invalid or inconsistent parameters."""


class ProtocolError(ReproError):
    """A wire message could not be encoded or decoded."""


class SummaryMismatchError(ProtocolError):
    """A summary update does not match the copy held for its sender.

    Raised when a DIRUPDATE announces a different filter geometry,
    hash specification, or representation than the receiver's copy --
    the sender rebuilt or reconfigured, so the copy needs a whole-summary
    resynchronization, not a patch.
    """


class KeyTypeError(ReproError, TypeError):
    """A summary/hash key had an unsupported type (not ``str``/``bytes``)."""


class BitIndexError(ReproError, IndexError):
    """A bit or counter index fell outside its array."""


class SummaryStateError(ReproError, ValueError):
    """A summary mutation contradicts its recorded state.

    Raised for counter underflows and removals of keys that were never
    inserted -- proceeding would silently corrupt the summary, which is
    exactly the failure class Section V-C's counting discipline exists
    to prevent.
    """


class CacheStateError(ReproError, KeyError):
    """A cache operation needs state the cache does not have.

    Raised e.g. when a replacement policy is asked for a victim while
    empty.
    """


class TraceFormatError(ReproError):
    """A trace file or record did not match the expected format."""


class TraceIndexError(TraceFormatError, IndexError):
    """A record index fell outside a trace or trace window."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ProxyError(ReproError):
    """The asyncio proxy prototype hit a fatal runtime condition."""
