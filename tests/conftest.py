import math
from decimal import Decimal, localcontext

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
#: psi conjugated by phi^a L^b, a <= 10, b <= 3, where independent of phi
PSI_CONJUGATES = [c for c in (PSI.conjugated_by(PHI ** a * L_GEN ** b)
                              for a in range(11) for b in range(4))
                  if c != PHI]


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


def reference_axis_distance(k, Q):
    """acosh(|k| / sqrt Q) / 2 at 50 digits: the distance of two disjoint axes
    of pair invariant (k, Q)."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = abs(Decimal(k)) / Decimal(Q).sqrt()
        return (x + (x * x - 1).sqrt()).ln() / 2


def reference_projection_interval(target, source):
    """The projection interval of source's axis on target's at a precision of
    60 plus twice the entries' digits: the feet 1/2 ln|(x - rep)/(att - x)| of
    the source's endpoints x, with every endpoint (A +- sqrt Delta)/2c."""
    def fixed_points(m):
        a, b, c, d = m.entries() if m.trace > 0 else (-e for e in m.entries())
        root = Decimal((a + d) ** 2 - 4).sqrt()
        return (a - d - root) / (2 * c), (a - d + root) / (2 * c)

    digits = max(len(str(abs(e))) for m in (target, source) for e in m.entries())
    with localcontext() as ctx:
        ctx.prec = 60 + 2 * digits
        rep, att = fixed_points(target)
        feet = [abs((x - rep) / (att - x)).ln() / 2 for x in fixed_points(source)]
        return min(feet), max(feet)


def within_ulps(value, reference, ulps=4):
    return abs(Decimal(value) - reference) <= ulps * Decimal(math.ulp(value))


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
