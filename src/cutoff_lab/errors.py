"""Exception hierarchy shared across the library."""


class CutoffLabError(Exception):
    """Base class for all library-specific errors."""


class NotIrreducible(CutoffLabError):
    """The transition matrix is not irreducible."""


class AsymmetricSupport(CutoffLabError):
    """P(x,y) > 0 does not imply P(y,x) > 0."""


class DimensionMismatch(CutoffLabError):
    """Vectors or matrices with incompatible shapes."""


class UnsupportedState(CutoffLabError):
    """A distribution charges a state where the reference law vanishes."""


class NoCrossing(CutoffLabError):
    """Bisection target is not bracketed."""


class UnderflowRisk(CutoffLabError):
    """Heat-kernel entries too small to take logarithms safely."""


class HypothesisViolation(CutoffLabError):
    """An inequality was invoked outside its stated hypothesis."""


class CertificateFailed(CutoffLabError):
    """A transport LP or Poincare certificate failed."""


class CurvatureHypothesisFailed(CutoffLabError):
    """The chain is not certified non-negatively curved."""


class NotGenerating(CutoffLabError):
    """The generator set does not generate the group."""


class NotSymmetricSet(CutoffLabError):
    """The generator multiset is not closed under negation."""


class GenerationFailed(CutoffLabError):
    """Random generator draws failed to produce a generating set."""


class StateCapExceeded(CutoffLabError):
    """A size past its limit: a chain of more transition entries than
    chain._admit's rule lets in (n^2 dense, N |supp mu| for a declared
    walk), a heat-kernel power sequence past chain._KERNEL_BYTES, or a
    --tgrid of more than cli.TGRID_STEPS_CAP steps."""


class EpsilonOutOfRange(CutoffLabError, ValueError):
    """eps below the kernel's resolution (entropy.EPS_MIN) or not below 1."""


class TimeOutOfRange(CutoffLabError, OverflowError):
    """Heat-kernel time that is not finite."""


class SpecParseError(CutoffLabError):
    """Malformed family spec or chain file."""
