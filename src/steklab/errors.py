"""Exception taxonomy shared across the package, and its one parameter check.

The CLI maps these onto exit codes: UsageError -> 2, NumericalError -> 3,
PreconditionError (and subclasses) and MeshError -> 4, any other
SteklabError -> 3.
"""

import math
import numbers

# the most vertices, values, grid nodes, modes, samples or trials one input may ask for
SIZE_BUDGET = 10**7


class SteklabError(Exception):
    """Base class for all package errors."""


class UsageError(SteklabError):
    """Invalid arguments or inconsistent request."""


class MeshError(SteklabError):
    """Mesh fails a structural invariant (indices, facet counts, degeneracy)."""


class NumericalError(SteklabError):
    """A solver failed to converge or produced an unusable factorization."""


class PreconditionError(SteklabError):
    """A documented precondition or hypothesis does not hold for the inputs."""


class HypothesisViolation(PreconditionError):
    """The ball-measure hypothesis of the packing construction fails."""


class ResolutionError(PreconditionError):
    """The mesh is too coarse to resolve a requested length scale."""


class NonTransverseSample(PreconditionError):
    """A sampled plane grazes the mesh; the sample must be redrawn."""


class TruncationError(PreconditionError):
    """A truncated spectrum cannot be certified complete from the given data."""


def check(name, value, low=None, high=None, *, strict=False, integer=False):
    """Return `value` when it lies in [low, high], or (low, high) when strict.

    Raises UsageError otherwise; a missing bound is no bound.  NaN never
    passes and a real must be finite.  An integer must be integral and no
    larger than 2^53 in magnitude, since it enters the arithmetic as a double;
    it is compared exactly, so 10**400 is rejected, not overflowed.  NumPy
    scalars count as the numbers they hold.
    """
    real = isinstance(value, numbers.Real)
    if integer:
        ok = isinstance(value, numbers.Integral) or (real and float(value).is_integer())
        number = int(value) if ok else 0
        ok = ok and abs(number) <= 2**53
    else:
        try:
            number = float(value) if real else math.nan
        except OverflowError:  # an int beyond the doubles
            number = math.inf
        ok = math.isfinite(number)
    if ok and (low is None or (number > low if strict else number >= low)):
        if high is None or (number < high if strict else number <= high):
            return value
    words = ("greater than", "less than") if strict else ("at least", "at most")
    where = [f"{word} {end}" for word, end in zip(words, (low, high)) if end is not None]
    if low == 0 and high is None:
        where = ["positive" if strict else "non-negative"]
    rule = "an integer no larger than 2^53" if integer else "finite"
    raise UsageError(f"{name} must be {', '.join(where) + ' and ' if where else ''}{rule}")
