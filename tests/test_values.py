"""Value semantics of the package's record classes.

Equality by fields and only within one class, hashes of equal values, the
exact reprs (error messages embed them), read-only fields, keyword
construction with defaults, copies, and each class's validation errors.
"""

import copy
import math
import pickle

import pytest

from teichpong.errors import DegenerateInputError, InvalidInputError, NotIndependentError
from teichpong.hyp2 import BoundaryPoint, Geodesic, Mobius, Point
from teichpong.mcg import AxisData, MappingClass, projection_interval
from teichpong.oracle import WordReport
from teichpong.pingpong import PaperConstants, PingPongCertificate
from teichpong.projection import ModelConstants, PairGeometry, Thresholds
from teichpong.torus_model import Slope, ThickParams

FIN, INF = BoundaryPoint.finite, BoundaryPoint.infinity
GEO_REPR = "Geodesic(endpoint_neg=-1.0, endpoint_pos=1.0, origin=Point(x=0.0, y=1.0))"


def _geo():
    return Geodesic(FIN(-1.0), FIN(1.0), Point(0.0, 1.0))


def _cert(**kw):
    return PingPongCertificate(
        generators=[MappingClass(2, 1, 1, 1)], mode="certified_search", b=0.9, l_min=0.96,
        R=1.0, S=2.0, N=3, intervals={(0, 1): (-1.0, 1.0)}, pair_data={}, paper=None,
        config={"seed": 0}, **kw)


#: a factory for one value of each class (called twice for an equal copy), its
#: exact repr, and a field whose assignment a frozen class refuses
VALUES = {
    "Point": (lambda: Point(1.5, 2.0), "Point(x=1.5, y=2.0)", "x"),
    "BoundaryPoint": (lambda: FIN(0.5), "0.5", "value"),
    "Mobius": (lambda: Mobius(2.0, 1.0, 1.0, 1.0), "Mobius(a=2.0, b=1.0, c=1.0, d=1.0)", "a"),
    "Geodesic": (_geo, GEO_REPR, "origin"),
    "MappingClass": (lambda: MappingClass(2, 1, 1, 1), "MappingClass(a=2, b=1, c=1, d=1)", "a"),
    "AxisData": (lambda: AxisData(_geo(), FIN(-1.0), FIN(1.0), 0.5, 1.5),
                 f"AxisData(axis={GEO_REPR}, repelling=-1.0, attracting=1.0, "
                 "translation=0.5, dilatation=1.5)", "translation"),
    "ModelConstants": (lambda: ModelConstants(b=0.9, delta=0.44),
                       "ModelConstants(b=0.9, delta=0.44)", "b"),
    "PairGeometry": (lambda: PairGeometry(D=0.5, O=Point(0.0, 1.0), O_prime=Point(1.0, 2.0),
                                          t_O=0.25, s_O=-0.25, crossing=False),
                     "PairGeometry(D=0.5, O=Point(x=0.0, y=1.0), O_prime=Point(x=1.0, y=2.0), "
                     "t_O=0.25, s_O=-0.25, crossing=False)", "D"),
    "Thresholds": (lambda: Thresholds(p_plus=1.0, p_minus=-1.0, q_plus=2.0, q_minus=-2.0),
                   "Thresholds(p_plus=1.0, p_minus=-1.0, q_plus=2.0, q_minus=-2.0)", "p_plus"),
    "Slope": (lambda: Slope(1, 2), "Slope(p=1, q=2)", "p"),
    "ThickParams": (lambda: ThickParams(epsilon=0.5, F=2.0, short_curve_coeff=1.08),
                    "ThickParams(epsilon=0.5, F=2.0, short_curve_coeff=1.08)", "F"),
    "PaperConstants": (lambda: PaperConstants(L=1.0, F=2.0, M=3.0, B=4, R_paper=5, N_paper=6),
                       "PaperConstants(L=1.0, F=2.0, M=3.0, B=4, R_paper=5, N_paper=6)", "B"),
    "PingPongCertificate": (
        _cert,
        "PingPongCertificate(generators=[MappingClass(a=2, b=1, c=1, d=1)], "
        "mode='certified_search', b=0.9, l_min=0.96, R=1.0, S=2.0, N=3, "
        "intervals={(0, 1): (-1.0, 1.0)}, pair_data={}, paper=None, config={'seed': 0}, "
        "verification=None)", None),
    "WordReport": (lambda: WordReport(n_generators=2, N=3, max_word_length=4, words_checked=5),
                   "WordReport(n_generators=2, N=3, max_word_length=4, words_checked=5, "
                   "violations=[], incomplete=False)", None),
}
MUTABLE = ("PingPongCertificate", "WordReport")
NAMES = sorted(VALUES)


class _Other:
    """A foreign class that claims equality with everything."""

    def __eq__(self, other):
        return True

    __hash__ = None


@pytest.mark.parametrize("name", NAMES)
class TestValueSemantics:
    def test_equal_to_a_copy(self, name):
        make = VALUES[name][0]
        x, y = make(), make()
        assert x is not y and x == y and not x != y
        assert copy.copy(x) == x and copy.deepcopy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x

    def test_never_equal_to_another_class(self, name):
        x = VALUES[name][0]()
        others = [VALUES[n][0]() for n in NAMES if n != name]
        assert all(x != o and not x == o for o in others)
        assert x != () and x != None  # noqa: E711
        assert x.__eq__(()) is NotImplemented
        # a foreign __eq__ decides, as for any NotImplemented
        assert x == _Other()

    def test_hash(self, name):
        make = VALUES[name][0]
        if name in MUTABLE:
            with pytest.raises(TypeError):
                hash(make())
        else:
            assert hash(make()) == hash(make())
            assert len({make(), make()}) == 1

    def test_repr(self, name):
        make, text, _ = VALUES[name]
        assert repr(make()) == text

    def test_assignment(self, name):
        make, _, field = VALUES[name]
        x = make()
        if name in MUTABLE:
            x.N = 7
            assert make() != x
            return
        before = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, before)
        with pytest.raises(AttributeError):
            delattr(x, field)
        with pytest.raises(AttributeError):
            x.no_such_field = 1
        assert getattr(x, field) == before and x == make()


class TestFields:
    def test_geodesic_chart_is_outside_eq_hash_and_repr(self):
        g = _geo()
        assert isinstance(g.chart, Mobius)
        assert "chart" not in repr(g)
        with pytest.raises(AttributeError):
            g.chart = Mobius(1.0, 0.0, 0.0, 1.0)
        # the same line with another origin is another value
        assert g != Geodesic(FIN(-1.0), FIN(1.0), Point(0.6, 0.8))
        assert copy.deepcopy(g).chart == g.chart

    def test_boundary_point_defaults(self):
        xi = BoundaryPoint()
        assert (xi.value, xi.infinite) == (0.0, False) and repr(xi) == "0.0"
        assert BoundaryPoint(value=2.0) == FIN(2.0)
        assert BoundaryPoint(infinite=True) == INF() and repr(INF()) == "oo"
        assert FIN(1.0) != INF()
        # an infinite point drops its value: there is one infinity
        far = BoundaryPoint(5.0, True)
        assert far == INF() and hash(far) == hash(INF()) and far.value == 0.0
        assert BoundaryPoint(value=math.inf, infinite=True) == INF()

    def test_certificate_keywords(self):
        assert _cert().verification is None
        assert _cert(verification=None) == _cert()
        assert _cert(verification={"ok": True}) != _cert()

    def test_word_report_fresh_violations(self):
        r1 = WordReport(n_generators=2, N=3, max_word_length=4, words_checked=5)
        r2 = WordReport(2, 3, 4, 5)
        assert r1 == r2 and r1.violations == [] and r1.violations is not r2.violations
        r1.violations.append("g1")
        assert r2.violations == [] and r1 != r2
        assert r1.incomplete is False

    def test_mapping_class_canonical(self):
        m = MappingClass(-2, -1, -1, -1)
        assert m == MappingClass(2, 1, 1, 1) and hash(m) == hash(MappingClass(2, 1, 1, 1))
        assert m.entries() == (2, 1, 1, 1) and str(m) == "2,1,1,1"
        assert type(MappingClass(2.0, 1, 1, 1).a) is int
        assert MappingClass(a=1, b=0, c=0, d=1) == MappingClass.identity()
        # a dict keyed by classes finds a recomputed product
        assert {MappingClass(2, 1, 1, 1) ** 3: 1}[MappingClass(-13, -8, -8, -5)] == 1

    def test_embedded_repr_in_message(self):
        with pytest.raises(InvalidInputError) as exc:
            Mobius(1e200, 0.0, 0.0, 1e-200).apply(Point(0.0, 1e200))
        assert str(exc.value).startswith("image of Point(x=0.0, y=1e+200) left the half plane")


@pytest.mark.parametrize("make, kind, message", [
    (lambda: Point(math.inf, 1.0), InvalidInputError, "non-finite point (inf, 1.0)"),
    (lambda: Point(0.0, math.nan), InvalidInputError, "non-finite point (0.0, nan)"),
    (lambda: Point(0.0, 0.0), InvalidInputError, "point must have positive height, got y=0.0"),
    (lambda: Point(x=1.0, y=-2.0), InvalidInputError,
     "point must have positive height, got y=-2.0"),
    (lambda: BoundaryPoint(math.nan), InvalidInputError,
     "finite boundary point must be a finite real"),
    (lambda: FIN(math.inf), InvalidInputError, "finite boundary point must be a finite real"),
    (lambda: Mobius(1.0, 1.0, 1.0, 1.0), InvalidInputError, "determinant must be 1, got 0.0"),
    (lambda: Mobius(2.0, 0.0, 0.0, 2.0), InvalidInputError, "determinant must be 1, got 4.0"),
    (lambda: Geodesic(FIN(1.0), FIN(1.0), Point(1.0, 1.0)), DegenerateInputError,
     "geodesic endpoints must be distinct"),
    (lambda: Geodesic(INF(), INF(), Point(0.0, 1.0)), DegenerateInputError,
     "geodesic endpoints must be distinct"),
    (lambda: Geodesic(BoundaryPoint(1.0, True), INF(), Point(0.0, 1.0)), DegenerateInputError,
     "geodesic endpoints must be distinct"),
    # phi^2 shares phi's axis, where the closed form would take log(0)
    (lambda: projection_interval(MappingClass(2, 1, 1, 1), MappingClass(5, 3, 3, 2)),
     NotIndependentError, "2,1,1,1 and 5,3,3,2 share an axis"),
    (lambda: Geodesic(FIN(-1.0), FIN(1.0), Point(0.0, 2.0)), InvalidInputError,
     "origin is not on the geodesic"),
    (lambda: MappingClass(1, 1, 1, 1), InvalidInputError,
     "determinant must be exactly 1, got 0"),
    (lambda: MappingClass(2, 0, 0, 2), InvalidInputError,
     "determinant must be exactly 1, got 4"),
    (lambda: Slope(2, 4), InvalidInputError, "slope (2,4) is not primitive"),
    (lambda: Slope(1, -2), InvalidInputError,
     "slope (1,-2) is not canonical (need q > 0, or (1,0))"),
    (lambda: Slope(-1, 0), InvalidInputError,
     "slope (-1,0) is not canonical (need q > 0, or (1,0))"),
])
def test_validation(make, kind, message):
    with pytest.raises(kind) as exc:
        make()
    assert type(exc.value) is kind and str(exc.value) == message


@pytest.mark.parametrize("name", NAMES)
class TestConstructor:
    """One call shape per class: the fields in order, by position or keyword."""

    @staticmethod
    def _class_and_fields(name):
        x = VALUES[name][0]()
        return type(x), {field: getattr(x, field) for field in x._fields}

    def test_positional_equals_keyword(self, name):
        cls, fields = self._class_and_fields(name)
        first, *rest = fields
        assert cls(*fields.values()) == cls(**fields) == VALUES[name][0]()
        assert cls(fields[first], **{k: fields[k] for k in rest}) == cls(**fields)

    def test_bad_calls(self, name):
        cls, fields = self._class_and_fields(name)
        values, first = list(fields.values()), next(iter(fields))
        calls = [lambda: cls(*values, no_such_field=1),
                 lambda: cls(*values, **{first: values[0]}),
                 lambda: cls(*values, values[0])]
        if name != "BoundaryPoint":  # the only class whose every field has a default
            calls.append(lambda: cls(**{k: v for k, v in fields.items() if k != first}))
        for call in calls:
            with pytest.raises(TypeError):
                call()
