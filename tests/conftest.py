import math

import numpy as np
import pytest
from hypothesis import settings

from teichpong.errors import DegenerateInputError
from teichpong.hyp2 import BoundaryPoint, Geodesic, Mobius, Point
from teichpong.mcg import MappingClass, classify, Classification, independent

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


PHI = MappingClass(2, 1, 1, 1)
PSI = MappingClass(1, 1, 1, 2)

L_GEN = MappingClass(1, 1, 0, 1)
R_GEN = MappingClass(1, 0, 1, 1)


def random_pseudo_anosov(rng, max_trace=30):
    """Positive alternating words in the two twist generators, trace-capped."""
    while True:
        m = MappingClass.identity()
        for k in range(int(rng.integers(2, 5))):
            a = int(rng.integers(1, 4))
            base = L_GEN if k % 2 == 0 else R_GEN
            m = m * base ** a
        if classify(m) is Classification.PSEUDO_ANOSOV and abs(m.trace) <= max_trace:
            return m


def random_independent_pair(rng, max_trace=30):
    while True:
        m1 = random_pseudo_anosov(rng, max_trace)
        m2 = random_pseudo_anosov(rng, max_trace)
        if independent(m1, m2):
            return m1, m2


def random_thick_point(rng):
    """A point of the fundamental-domain neighborhood, comfortably thick."""
    x = float(rng.uniform(-0.5, 0.5))
    y = float(np.exp(rng.uniform(math.log(0.9), math.log(2.0))))
    return Point(x, y)


def transport(m: Mobius, c: Geodesic) -> Geodesic:
    """Image geodesic with the transported orientation and origin."""
    return Geodesic(m.apply_boundary(c.endpoint_neg), m.apply_boundary(c.endpoint_pos),
                    m.apply(c.origin))


def geodesic_through(z: Point, w: Point) -> Geodesic:
    """The oriented geodesic from z toward w, with origin z."""
    tol = 1e-13 * max(abs(z.z), abs(w.z))  # relative, since dilations are isometries
    if abs(z.z - w.z) <= tol:
        raise DegenerateInputError("need two distinct points")
    fin, inf = BoundaryPoint.finite, BoundaryPoint.infinity
    if abs(z.x - w.x) <= tol:
        # vertical line
        return Geodesic(fin(z.x), inf(), z) if w.y > z.y else Geodesic(inf(), fin(z.x), z)
    center = (abs(z.z) ** 2 - abs(w.z) ** 2) / (2.0 * (z.x - w.x))
    radius = abs(z.z - center)
    if w.x > z.x:
        return Geodesic(fin(center - radius), fin(center + radius), z)
    return Geodesic(fin(center + radius), fin(center - radius), z)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def standard_pair():
    return PHI, PSI
