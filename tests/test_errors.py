import math

import numpy as np
import pytest

from steklab.errors import UsageError, check


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_non_finite_reals_never_pass(value):
    with pytest.raises(UsageError, match="x must be finite"):
        check("x", value)
    with pytest.raises(UsageError):
        check("x", value, integer=True)


def test_open_and_closed_ends():
    assert check("x", 0.0, 0) == 0.0
    assert check("x", 1.0, 0, 1) == 1.0
    with pytest.raises(UsageError, match="x must be positive and finite"):
        check("x", 0.0, 0, strict=True)
    with pytest.raises(UsageError, match="x must be greater than 0, less than 1 and finite"):
        check("x", 1.0, 0, 1, strict=True)
    assert check("x", 0.5, 0, 1, strict=True) == 0.5
    with pytest.raises(UsageError, match="x must be non-negative and finite"):
        check("x", -1e-300, 0)
    with pytest.raises(UsageError, match="x must be at least 2, at most 3 and"):
        check("x", 4, 2, 3, integer=True)


def test_integers():
    assert check("k", 3.0, 1, integer=True) == 3.0  # an integral float counts
    with pytest.raises(UsageError, match="at least 1 and an integer no larger than 2\\^53"):
        check("k", 1.5, 1, integer=True)
    assert check("k", 2**53, integer=True) == 2**53
    for too_big in (2**53 + 1, -(2**53) - 1, 10**400, 1e300):
        with pytest.raises(UsageError, match="2\\^53"):
            check("k", too_big, integer=True)


def test_huge_integers_are_not_finite_reals():
    # compared exactly, so nothing overflows on the way to the message
    with pytest.raises(UsageError, match="finite"):
        check("x", 10**400, 0, strict=True)


def test_numpy_scalars():
    assert check("k", np.int64(7), 1, integer=True) == 7
    assert check("k", np.float64(7.0), 1, integer=True) == 7
    assert check("x", np.float64(0.25), 0, 1) == 0.25
    assert check("x", np.float32(0.25), 0, 1) == 0.25
    with pytest.raises(UsageError):
        check("k", np.int64(-1), 0, integer=True)
    with pytest.raises(UsageError):
        check("k", np.float64(1.5), integer=True)


@pytest.mark.parametrize("value", [None, "1.0", [1.0]])
def test_non_numbers_never_pass(value):
    with pytest.raises(UsageError):
        check("x", value, 0)
    with pytest.raises(UsageError):
        check("x", value, 0, integer=True)
