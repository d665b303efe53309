"""Exception taxonomy.

Numerical failures raise subclasses of NumericalError; malformed inputs
raise subclasses of ValidationError.  The CLI maps the former to exit
code 3 and the latter to exit code 2.
"""


class BrakeIndexError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(BrakeIndexError):
    """Input document or argument violates a contract."""


class NumericalError(BrakeIndexError):
    """A computation failed a numerical guard."""


class SymplecticityLost(NumericalError):
    """Path sample drifted off the symplectic group beyond tolerance."""


class PhaseJumpTooLarge(NumericalError):
    """Determinant phase jumped by more than pi/2 between samples."""


class IrregularCrossing(NumericalError):
    """Crossing form is singular at the stated tolerance."""


class Undersampled(NumericalError):
    """A path turns too far between samples for its winding to be counted.

    The pair index refines its scan until arg det of the Souriau map
    steps by at most pi/2 per cell; a cell that reaches the width floor
    first raises this, naming the step left and the cell.
    """


class SymmetryViolated(NumericalError):
    """Required brake symmetry fails beyond tolerance."""


class TruncationUnstable(NumericalError):
    """Near-zero spectrum not stable between truncation orders K and 2K."""


class CrossingUnresolved(NumericalError):
    """Crossings could not be resolved into a checked count.

    In the pair index: the located crossings, all regular, do not sum to
    the eigenphase winding (the message names both), or the winding is
    not a half-integer.  In the spectral flow: an eigenvalue crossing of
    too high a multiplicity could not be isolated by grid refinement.
    """


class EndpointDegenerate(NumericalError):
    """Operator family endpoint has a nontrivial kernel."""


class OmegaResonant(ValidationError):
    """Rotation rate omega/2pi is within tolerance of an integer."""


class BoundaryMismatch(ValidationError):
    """Glued boundary labels carry inconsistent data."""


class DegenerateOrbit(NumericalError):
    """Orbit path has eigenvalue 1 where nondegeneracy is required."""


class DegenerateIterate(NumericalError):
    """Some iterate of an orbit path is degenerate."""


class EnergyDrift(NumericalError):
    """Relative energy drift along a trajectory exceeded tolerance."""


class NoConvergence(NumericalError):
    """Newton iteration hit the iteration cap without meeting tolerance."""


class LeftEnergySurface(NumericalError):
    """Shooting iterate left the target energy surface."""


class RadialDegeneracy(NumericalError):
    """Radial pairing x . grad H vanishes; no Reeb rescaling exists."""
