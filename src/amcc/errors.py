"""Semantic exception hierarchy.

Every domain error raised by this package derives from ``ContextualityError``
so callers (and the CLI) can distinguish input/validation problems from an
``InternalConsistencyError``, which signals that two independent decision
procedures disagreed, or that a solver result failed its certificate, and
the library itself is at fault.
"""


class ContextualityError(Exception):
    """Base class for all domain errors raised by this package."""


# --- scenario construction -------------------------------------------------

class DuplicateLabel(ContextualityError):
    """An observable label occurs twice (in the scenario or in a context)."""


class UnknownLabel(ContextualityError):
    """A context references an observable that is not in the scenario."""


class CoverViolation(ContextualityError):
    """Some observable does not occur in any context."""


class ChainViolation(ContextualityError):
    """A context is contained in another context (the cover must be an antichain)."""


class IndexOutOfRange(ContextualityError):
    """A context index does not exist in the scenario."""


class TooLarge(ContextualityError):
    """An exhaustive enumeration would exceed the supported size guard."""


class NotASubset(ContextualityError):
    """A restriction target is not a subset of the domain it is taken from."""


class MalformedInput(ContextualityError, ValueError):
    """A JSON document or a rational string does not have the expected shape."""


# --- empirical models ------------------------------------------------------

class NegativeEntry(ContextualityError):
    """A probability table entry is negative."""


class RowNotNormalized(ContextualityError):
    """A context row does not sum to exactly 1."""


class SignalingDetected(ContextualityError):
    """Two contexts disagree on the marginal over their intersection.

    Carries a witness: ``(context_a, context_b, overlap, marginal_a, marginal_b)``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class EmptySupport(ContextualityError):
    """A possibilistic row has no supported section."""


class ScenarioMismatch(ContextualityError):
    """An operation combined models that live on different scenarios."""


# --- linear programming ----------------------------------------------------

class ShapeMismatch(ContextualityError):
    """LP matrix and vector dimensions, or support masks and contexts, do not agree."""


# --- contextuality analysis ------------------------------------------------

class SignalingInput(ContextualityError):
    """A contextuality decision was requested for a signaling model."""


class InternalConsistencyError(Exception):
    """The LP decision and the exhaustive support scan disagreed, or an LP
    optimum failed its primal-dual certificate.

    Deliberately *not* a ``ContextualityError``: it indicates a bug in this
    library, not a problem with the caller's input.
    """


# --- constructions ---------------------------------------------------------

class LengthMismatch(ContextualityError):
    """A parity vector's length does not match the scenario's context count."""


class OutOfRange(ContextualityError):
    """A family parameter evaluates to an entry outside [0, 1]."""


class TooManyCandidates(ContextualityError):
    """A candidate enumeration would exceed the 2**24 guard."""


# --- applications ----------------------------------------------------------

class ConsistentResource(ContextualityError):
    """The parity system is satisfiable, so it carries no contextuality guarantee."""
