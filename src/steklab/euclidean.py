"""Volumes of unit balls and spheres in Euclidean space."""

import math

from .errors import check


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n (omega_n). omega_1 = 2, omega_2 = pi."""
    check("the dimension", n, 0, integer=True)
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def unit_sphere_area(d: int) -> float:
    """d-dimensional volume of the unit sphere S^d in R^(d+1).

    |S^0| = 2, |S^1| = 2*pi, |S^2| = 4*pi.
    """
    check("the dimension", d, 0, integer=True)
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
