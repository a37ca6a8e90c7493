"""Exception hierarchy shared by all modules.

Each class carries the CLI exit status it maps to: 1 for the errors that
answer the question asked in the negative (not Delzant, no probe, not
admissible, ...), 2 for every usage, parse and precondition error.
"""


class DelzantError(Exception):
    """Base class for all library errors."""

    exit_code = 2


# -- scalar / lattice ------------------------------------------------------

class ZeroVector(DelzantError):
    pass


class NotPrimitive(DelzantError):
    pass


class DimensionMismatch(DelzantError):
    pass


# -- polytope --------------------------------------------------------------

class ValidationError(DelzantError):
    """Malformed polytope data (non-primitive normal, duplicate facet, ...)."""


class InfeasibleEmpty(DelzantError):
    """The open region cut out by the facets is empty."""


class NotDelzant(DelzantError):
    exit_code = 1

    def __init__(self, vertex, det, message):
        super().__init__(message)
        self.vertex = vertex
        self.det = det


class NotInterior(DelzantError):
    pass


class NotUnimodular(DelzantError):
    pass


# -- probes ----------------------------------------------------------------

class UnboundedRay(DelzantError):
    """The ray through x in direction +/-v never leaves the polytope."""

    exit_code = 1


class HitsLowerFace(DelzantError):
    """A probe endpoint lands on a face of codimension >= 2."""

    exit_code = 1


class NotTransverse(DelzantError):
    """|<v, xi>| != 1 at the facet realizing the hit."""

    exit_code = 1


class NotOnProbe(DelzantError):
    pass


# -- orbit / monodromy -----------------------------------------------------

class BaseNotInGraph(DelzantError):
    pass


class NotReductionType(DelzantError):
    """Facet normals do not span R^n; the ambient solver does not apply."""

    exit_code = 1


# -- reduction -------------------------------------------------------------

class SliceMissesPolytope(DelzantError):
    exit_code = 1


class NotAdmissible(DelzantError):
    exit_code = 1

    def __init__(self, report, message):
        super().__init__(message)
        self.report = report


class SliceInsideFacet(DelzantError):
    exit_code = 1


class InducedNotPrimitive(DelzantError):
    pass


class NormalsDoNotSpan(DelzantError):
    exit_code = 1


# -- product tori ----------------------------------------------------------

class NonPositiveEntry(DelzantError):
    pass


class LengthMismatch(DelzantError):
    pass


class RankNotOne(DelzantError):
    pass


class NotEquivalent(DelzantError):
    exit_code = 1


class WordSearchExhausted(DelzantError):
    pass


class PreconditionViolated(DelzantError):
    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


class SelfCheckFailed(DelzantError):
    """A computed result failed its own exact check: a fault in the
    library, never an answer.  Raised, not asserted, so `python -O` keeps it."""


# -- presets / cli ---------------------------------------------------------

class UnknownPreset(DelzantError):
    pass


class OracleUnavailable(DelzantError):
    """The requested closed-form oracle is not encodable (e.g. dense orbits)."""


class ParseError(DelzantError):
    pass


class NotPlanar(DelzantError):
    pass
