"""Exception types shared across the package."""


class DolabError(Exception):
    """Base class for all errors raised by this package."""


class GameValidationError(DolabError):
    """A game description violates a structural invariant."""


class NonStochasticTransition(GameValidationError):
    """A transition row (or the start distribution) does not sum to one."""


class CyclicTransitionGraph(GameValidationError):
    """The transition multigraph contains a cycle."""


class RewardOnNonterminal(GameValidationError):
    """A reward was attached to a state that is not terminal."""


class DanglingState(GameValidationError):
    """A nonterminal state is missing transition rows, or a terminal has them."""


class DomainMismatch(DolabError):
    """A policy does not belong to the game it is used with."""


class EnumerationCapExceeded(DolabError):
    """An exact enumeration would exceed the configured desk-scale cap."""


class NotZeroSum(DolabError):
    """A zero-sum-only operation was applied to a general-sum game."""


class ScriptedCandidateSuboptimal(DolabError):
    """A scripted best-response candidate does not achieve the optimal value."""


class IllegalScriptedMetaNash(DolabError):
    """A scripted meta-game profile failed its exactness certification."""


class IllegalScriptedBestResponse(DolabError):
    """A scripted response failed its best-response certification."""


class UniquenessViolation(DolabError):
    """unique-or-fail tiebreaking found more than one optimal choice."""


class MaxItersExceeded(DolabError):
    """A dynamics run exceeded its iteration budget without terminating."""


class IndexOutOfRange(DolabError):
    """A policy encoding index is outside the family's valid range."""


class InvalidFamily(DolabError):
    """Unknown family name or invalid family parameter."""


class MissingTraces(DolabError):
    """A report was requested from a directory holding no trace files."""


class LpError(DolabError):
    """Exact LP solver failure (unbounded, negative rhs, failed certificate)."""
