"""Exception hierarchy for the copr package.

Every error raised by copr code derives from :class:`CoprError`, so callers
can catch one base class. Validation-style errors also derive from
``ValueError`` to stay friendly to generic callers.
"""


class CoprError(Exception):
    """Base class for all copr errors."""


class InvalidConfig(CoprError, ValueError):
    """A configuration object violates one of its invariants."""


class ZeroQuaternion(CoprError, ValueError):
    """Quaternion norm too small to normalize (below 1e-12)."""


class NonUnitQuaternion(CoprError, ValueError):
    """Quaternion norm more than 1e-6 away from 1 where a unit one is required."""


class DimMismatch(CoprError, ValueError):
    """Vector or descriptor dimensions do not agree."""


class ShapeMismatch(CoprError, ValueError):
    """Array shapes do not match the model or optimizer state."""


class EmptyMap(CoprError, ValueError):
    """Operation requires a non-empty reference map."""


class DuplicateId(CoprError, ValueError):
    """Two reference-map entries share one id."""


class BadMagic(CoprError, ValueError):
    """Binary file does not start with the expected magic bytes."""


class VersionUnsupported(CoprError, ValueError):
    """Binary file declares a format version this build cannot read."""


class CountMismatch(CoprError, ValueError):
    """Pose rows and descriptor rows disagree in count."""


class ParseError(CoprError, ValueError):
    """Malformed text or binary payload.

    Carries ``line`` (1-based, text files) or ``offset`` (bytes, binary
    files) when known.
    """

    def __init__(self, message, line=None, offset=None):
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif offset is not None:
            loc = f" (offset {offset})"
        super().__init__(message + loc)
        self.line = line
        self.offset = offset


class UnwritableId(CoprError, ValueError):
    """A map id cannot be written to the pose CSV: it holds a separator, quote or line break."""


class IoError(CoprError, OSError):
    """Filesystem error while reading or writing an artifact."""


class RefusedNonFinite(CoprError, ValueError):
    """Refusing non-finite values: descriptors, model parameters, observations."""


class CoincidentAnchors(CoprError, ValueError):
    """Two interpolation anchors share the same translation."""


class TooFewNeighbors(CoprError, ValueError):
    """Plane fit needs at least four neighbor samples."""


class TooFewAnchors(CoprError, ValueError):
    """Interpolation target generation needs at least two anchors."""


class MethodPlanMismatch(CoprError, ValueError):
    """Densification method incompatible with the target plan's scheme."""


class UnknownAnchor(CoprError, ValueError):
    """A target plan names an anchor id the map does not hold."""


class EmptyTrainingSet(CoprError, ValueError):
    """Training requires at least one example."""


class ZeroVector(CoprError, ValueError):
    """Cannot L2-normalize a zero vector."""


class InsufficientScenes(CoprError, ValueError):
    """Operation needs at least two distinct scenes."""


class ConfigConflict(CoprError, ValueError):
    """Scene layout parameters contradict each other."""
