"""Seeded inputs, operations and output checks of the four workloads.

A workload is a list of slices.  A slice is one kind of operation, with a
fixed count per cycle and the reason it is in the mix.  A run executes
whole cycles, so every run has exactly the same slice shares and only the
seeded matrices, points and argv differ between seeds.  Known defects that
make an operation fail today are not part of the timed mix: they run once
per run as probes and are reported beside the metrics.

The program is driven only through public functions of the ``teichpong``
package (looked up at call time, so the tracer's wrappers are seen) and
through its command line.  Matrices are generated and checked with the
benchmark's own exact integer arithmetic.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# ---------------------------------------------------------------------------
# Exact 2x2 integer arithmetic on (a, b, c, d) tuples
# ---------------------------------------------------------------------------

IDENTITY = (1, 0, 0, 1)
L_TWIST = (1, 1, 0, 1)
R_TWIST = (1, 0, 1, 1)
STANDARD_PAIR = ((2, 1, 1, 1), (1, 1, 1, 2))


def mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def inverse(m):
    return (m[3], -m[1], -m[2], m[0])


def power(m, n):
    if n < 0:
        return power(inverse(m), -n)
    out = IDENTITY
    while n:
        if n & 1:
            out = mul(out, m)
        m = mul(m, m)
        n >>= 1
    return out


def is_projective_identity(m):
    return m in (IDENTITY, (-1, 0, 0, -1))


def trace(m):
    return m[0] + m[3]


def independent(m1, m2):
    comm = mul(mul(m1, m2), mul(inverse(m1), inverse(m2)))
    return not is_projective_identity(comm)


def axis_endpoints(m):
    """(repelling, attracting) roots of c x^2 + (d - a) x - b, in floats."""
    a, b, c, d = m if trace(m) > 0 else tuple(-v for v in m)
    disc = math.sqrt(float((a + d) ** 2 - 4))
    return ((a - d) - disc) / (2.0 * c), ((a - d) + disc) / (2.0 * c)


def axes_cross(m1, m2):
    p1, q1 = sorted(axis_endpoints(m1))
    return sum(p1 < x < q1 for x in axis_endpoints(m2)) == 1


def model_dist(z, w):
    """Distance of the model plane (half the standard metric)."""
    return math.asinh(abs(z - w) / (2.0 * math.sqrt(z.imag * w.imag)))


def words_up_to(n, length):
    """Reduced words of length 1..length over n generators and inverses."""
    return sum(2 * n * (2 * n - 1) ** (k - 1) for k in range(1, length + 1))


def random_pa(rng, max_trace=30):
    """Positive word in the two Dehn twists, 2-4 syllables, trace capped."""
    while True:
        m = IDENTITY
        for k in range(rng.randint(2, 4)):
            m = mul(m, power(L_TWIST if k % 2 == 0 else R_TWIST, rng.randint(1, 3)))
        if abs(trace(m)) <= max_trace:
            return m


def pa_of_trace(rng, t):
    """A conjugate of L^a R^b with ab = t - 2, so the trace is exactly t."""
    a = rng.choice([k for k in range(1, t - 1) if (t - 2) % k == 0])
    core = mul(power(L_TWIST, a), power(R_TWIST, (t - 2) // a))
    g = mul(power(L_TWIST, rng.randint(0, 2)), power(R_TWIST, rng.randint(0, 2)))
    return mul(mul(g, core), inverse(g))


def random_family(rng, n, max_trace=30):
    """n pairwise independent classes."""
    while True:
        fam = [random_pa(rng, max_trace) for _ in range(n)]
        if all(independent(fam[i], fam[j]) for i in range(n) for j in range(i + 1, n)):
            return tuple(fam)


class CheckFailed(Exception):
    """An output did not pass the benchmark's check."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Operations, slices and workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One operation: a slice name and plain-data inputs."""

    kind: str
    args: tuple


@dataclass(frozen=True)
class Slice:
    name: str
    per_cycle: int
    why: str


class Context:
    """What an operation needs: the package, a working directory, the CLI
    launcher and, in the traced pass, the tracer.  CLI processes inherit the
    environment, which run.py has pinned."""

    def __init__(self, tp, workdir, tracer=None):
        self.tp = tp
        self.workdir = Path(workdir)
        self.tracer = tracer
        #: outputs remembered across operations, for consistency checks
        self.seen = {}

    def cli(self, argv, cwd):
        """Run one CLI invocation; returns (returncode, stdout, stderr)."""
        if self.tracer is None:
            cmd = [sys.executable, "-m", "teichpong.cli", *argv]
        else:
            dump = Path(cwd) / "trace-dump.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(dump), *argv]
        t0 = time.perf_counter()
        p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if self.tracer is not None and dump.exists():
            child = json.loads(dump.read_text())
            dump.unlink()
            self.tracer.merge(child)
            main_s = child["lists"]["cli.main_ms"][-1] / 1000.0
            self.tracer.lists.setdefault("cli.startup_share", []).append(1.0 - main_s / wall)
        return p.returncode, p.stdout, p.stderr


class Workload:
    name = ""
    #: Python run in a fresh interpreter to time set-up: import and first-use constants
    setup_code = "import teichpong"
    slices: tuple = ()
    probe_why = ""
    #: whole cycles in each pass of a traced run (a fixed count, so counts repeat)
    trace_cycles = 1

    def cycle(self, seed, index):
        """The seeded operations of cycle ``index``, in seeded order."""
        rng = random.Random(f"{self.name}/{seed}/{index}")
        ops = [op for s in self.slices for op in self.make(s.name, rng, s.per_cycle)]
        rng.shuffle(ops)
        return ops

    def make(self, kind, rng, count):
        """``count`` seeded operations of slice ``kind``."""
        raise NotImplementedError

    def probes(self, seed):
        return []

    def run(self, op, ctx):
        """Execute the timed part of one operation and return its outputs."""
        raise NotImplementedError

    def check(self, op, out, ctx):
        """Raise CheckFailed unless the outputs are correct."""

    def recheck(self, op, out, ctx):
        """Criterion 9: an identical call gives byte-identical documents."""

    def units(self, op, out):
        """Work done by one successful operation, by unit name."""
        return {}

    def named(self, records):
        """The workload's own end-to-end metrics: (name, value, unit, samples)."""
        return []

    def shares(self):
        total = sum(s.per_cycle for s in self.slices)
        return {s.name: {"share": round(s.per_cycle / total, 4), "why": s.why} for s in self.slices}


def ok_times(records):
    return [r["seconds"] for r in records if r["ok"]]


def percentile(values, q):
    """Inclusive-method percentile, as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rate(records, unit):
    work = sum(r["units"].get(unit, 0) for r in records if r["ok"])
    busy = sum(r["units"].get(unit + "_s", 0.0) for r in records if r["ok"])
    return work / busy if busy else 0.0


# ---------------------------------------------------------------------------
# certify_families
# ---------------------------------------------------------------------------

class CertifyFamilies(Workload):
    name = "certify_families"
    setup_code = "import teichpong, teichpong.serialize; teichpong.model_constants()"
    slices = (
        Slice("pair", 15, "seeded pseudo-Anosov pairs of trace <= 30; the verifier does most of the work"),
        Slice("triple", 3, "three generators: 23,436 oracle words per family put the oracle in the p90 tail"),
        Slice("large_entry", 2, "L^k R with R^3 L^2, k log-uniform in [10, 3e5]: large exact entries "
                                "below the first known verifier failure (k near 1.3e6)"),
    )
    probe_why = ("L^k R with R^3 L^2 for k in [1e8, 1e13]: the verifier converts g^N to "
                 "floats and fails, as its axis check already does for some k from about "
                 "1.3e6 (ROADMAP item 3); reported, not timed")
    trace_cycles = 4
    samples = 100_000
    word_len = 6

    def make(self, kind, rng, count):
        return [self._family(kind, rng) for _ in range(count)]

    @staticmethod
    def _family(kind, rng):
        if kind == "pair":
            return Op(kind, random_family(rng, 2))
        if kind == "triple":
            return Op(kind, random_family(rng, 3))
        k = int(10 ** rng.uniform(1.0, 5.5))
        return Op(kind, (mul(power(L_TWIST, k), R_TWIST), mul(power(R_TWIST, 3), power(L_TWIST, 2))))

    def probes(self, seed):
        rng = random.Random(f"{self.name}/{seed}/probes")
        return [Op("large_entry_overflow",
                   (mul(power(L_TWIST, int(10 ** rng.uniform(lo, hi))), R_TWIST),
                    mul(power(R_TWIST, 3), power(L_TWIST, 2))))
                for lo, hi in ((8.0, 10.0), (10.0, 13.0))]

    def run(self, op, ctx):
        tp = ctx.tp
        gens = [tp.MappingClass(*m) for m in op.args]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cert = tp.build_certificate(gens)
            tp.verify_pingpong(cert, self.samples)
        report = tp.free_check(gens, cert.N, self.word_len)
        docs = (tp.serialize.certificate_document(cert),
                tp.serialize.word_report_document(report))
        return cert, report, docs

    def check(self, op, out, ctx):
        cert, report, docs = out
        expect(cert.verification and cert.verification["passed"], "verifier did not pass")
        lhs = Fraction(cert.N) * Fraction(cert.l_min)
        rhs = 2 * Fraction(cert.R) + 12 * Fraction(cert.b)
        expect(lhs > rhs, f"N={cert.N} does not clear (2R + 12b) / l_min exactly")
        expect(report.words_checked == words_up_to(len(op.args), self.word_len),
               f"words_checked={report.words_checked}")
        expect(not report.violations and not report.incomplete, "free family reported a relation")
        doc = json.loads(docs[0])
        expect(doc["N"] == str(cert.N) and doc["verification"]["passed"], "certificate document")

    def recheck(self, op, out, ctx):
        expect(self.run(op, ctx)[2] == out[2], "identical calls gave different documents")

    def named(self, records):
        times = ok_times(records)
        busy = sum(r["seconds"] for r in records)
        return [("families_per_s", len(times) / busy if busy else 0.0, "1/s", len(times)),
                ("family_ms_p50", 1000 * percentile(times, 50), "ms", len(times)),
                ("family_ms_p90", 1000 * percentile(times, 90), "ms", len(times))]


# ---------------------------------------------------------------------------
# oracle_words
# ---------------------------------------------------------------------------

def certified_power(tp, mats):
    """The certified N of a family, computed while inputs are generated."""
    return tp.build_certificate([tp.MappingClass(*m) for m in mats]).N


class OracleWords(Workload):
    name = "oracle_words"
    slices = (
        Slice("standard_pair", 4, "(2,1,1,1), (1,1,1,2) at N=12, length 10 (118,096 words); "
                                  "4 of 7 calls, so the median call is one of these"),
        Slice("triple", 1, "seeded triple at its certified N, length 7 (117,186 words): wider alphabet"),
        Slice("large_trace_pair", 1, "traces 20 and 14 at the certified N, length 9 (39,364 words): "
                                     "larger entries make each product dearer"),
        Slice("dependent_pair", 1, "(phi^2, phi^3) at N=1, length 9: commuting powers, "
                                   "so the oracle must report relations"),
    )
    lengths = {"standard_pair": 10, "triple": 7, "large_trace_pair": 9, "dependent_pair": 9}
    trace_cycles = 1

    def make(self, kind, rng, count):
        import teichpong as tp
        length = self.lengths[kind]
        if kind == "standard_pair":
            return [Op(kind, (STANDARD_PAIR, 12, length))] * count
        if kind == "dependent_pair":
            phi = STANDARD_PAIR[0]
            return [Op(kind, ((power(phi, 2), power(phi, 3)), 1, length))] * count
        ops = []
        for _ in range(count):
            if kind == "triple":
                mats = random_family(rng, 3)
            else:
                while True:
                    mats = (pa_of_trace(rng, 20), pa_of_trace(rng, 14))
                    if independent(*mats):
                        break
            ops.append(Op(kind, (mats, certified_power(tp, mats), length)))
        return ops

    def run(self, op, ctx):
        mats, n, length = op.args
        return ctx.tp.free_check([ctx.tp.MappingClass(*m) for m in mats], n, length)

    def check(self, op, report, ctx):
        mats, n, length = op.args
        expect(report.words_checked == words_up_to(len(mats), length),
               f"words_checked={report.words_checked}")
        expect(not report.incomplete, "report is incomplete")
        if op.kind != "dependent_pair":
            expect(not report.violations, "free family reported a relation")
            return
        expect(report.violations, "commuting powers reported no relation")
        expect(min(len(v["word"].split()) for v in report.violations) == 4,
               "shortest relation of commuting powers is not of length 4")
        letters = {}
        for i, m in enumerate(mats):
            letters[f"g{i + 1}"] = power(m, n)
            letters[f"g{i + 1}^-1"] = power(m, -n)
        for v in report.violations[:: max(1, len(report.violations) // 16)]:
            prod = IDENTITY
            for token in v["word"].split():
                prod = mul(prod, letters[token])
            expect(is_projective_identity(prod), f"reported relation {v['word']!r} is not one")

    def recheck(self, op, report, ctx):
        doc = ctx.tp.serialize.word_report_document
        expect(doc(self.run(op, ctx)) == doc(report), "identical calls gave different documents")

    def units(self, op, report):
        return {"words": report.words_checked}

    def named(self, records):
        words = sum(r["units"].get("words", 0) for r in records if r["ok"])
        busy = sum(r["seconds"] for r in records)
        calls = len(ok_times(records))
        return [("words_per_s", words / busy if busy else 0.0, "1/s", calls)]


# ---------------------------------------------------------------------------
# geometry_constants
# ---------------------------------------------------------------------------

class GeometryConstants(Workload):
    name = "geometry_constants"
    setup_code = "import teichpong; teichpong.model_constants()"
    slices = (
        Slice("new_L", 1, "the family's translation cap L is new in this run, so "
                          "derive_thick_params runs its grid search (seconds)"),
        Slice("shared_L_disjoint", 3, "L already derived (memo hit path); disjoint axes run the "
                                      "golden search and a fresh Morse bisection at D > 0"),
        Slice("shared_L_crossing", 1, "L already derived; crossing axes take the closed-form "
                                      "branch, and M(2, 0) is a memo hit"),
    )
    #: traces of the run's new translation caps, in seeded order; their grid
    #: searches cost alike (about 1.4 s each), which keeps runs comparable
    new_traces = tuple(range(4, 10))
    t_min, t_max, step = -3.0, 3.0, 0.005
    trace_cycles = 1

    def _traces(self, seed):
        order = list(self.new_traces)
        random.Random(f"{self.name}/{seed}/traces").shuffle(order)
        return order

    def cycle(self, seed, index):
        rng = random.Random(f"{self.name}/{seed}/{index}")
        order = self._traces(seed)
        seen = [order[i % len(order)] for i in range(index + 1)]
        rest = [Op(s.name, self._family(rng, rng.choice(seen), s.name.endswith("crossing")))
                for s in self.slices[1:] for _ in range(s.per_cycle)]
        rng.shuffle(rest)
        return [Op("new_L", self._family(rng, seen[-1], None))] + rest

    @staticmethod
    def _family(rng, t, cross):
        """A pair of largest trace t, crossing or not (None: either)."""
        while True:
            m1 = pa_of_trace(rng, t)
            m2 = random_pa(rng, max_trace=t)
            if independent(m1, m2) and (cross is None or axes_cross(m1, m2) == cross):
                return (m1, m2) if rng.random() < 0.5 else (m2, m1)

    def run(self, op, ctx):
        tp = ctx.tp
        m1, m2 = (tp.MappingClass(*m) for m in op.args)
        t0 = time.perf_counter()
        pg = tp.pair_geometry(m1, m2)
        th = tp.fast_divergence_thresholds(m1, m2)
        t1 = time.perf_counter()
        rows = tp.divergence_profile(m1, m2, self.t_min, self.t_max, self.step)
        t2 = time.perf_counter()
        L = max(tp.translation_distance(m1), tp.translation_distance(m2))
        M = tp.derive_morse(2.0, pg.D)
        thick = tp.derive_thick_params(L)
        B = tp.short_curve_bound(math.exp(2.0 * (M + L)) * thick.F, thick)
        t3 = time.perf_counter()
        return {"pg": pg, "th": th, "rows": rows, "L": L, "M": M, "thick": thick, "B": B,
                "pair_s": t1 - t0, "profile_s": t2 - t1, "constants_s": t3 - t2}

    def check(self, op, out, ctx):
        tp = ctx.tp
        m1, m2 = (tp.MappingClass(*m) for m in op.args)
        pg, th, rows = out["pg"], out["th"], out["rows"]
        c1, c2 = tp.axis(m1).axis, tp.axis(m2).axis
        cross = axes_cross(*op.args)
        expect(pg.crossing == cross, "crossing flag disagrees with the axis endpoints")
        if cross:
            expect(pg.D == 0.0, "crossing axes with D != 0")
        else:
            D = tp.common_perpendicular_distance(c1, c2)
            expect(abs(pg.D - D) <= 1e-6, f"D={pg.D} but the closed form gives {D}")
        expect(th.p_minus < pg.t_O < th.p_plus and th.q_minus < pg.s_O < th.q_plus,
               "thresholds do not bracket the nearest points")
        n_rows = int(math.floor((self.t_max - self.t_min) / self.step + 1e-9)) + 1
        expect(len(rows) == n_rows, f"{len(rows)} profile rows, expected {n_rows}")
        for i, (t, s_star, d_min) in enumerate(rows):
            z = c1.point_at(t)
            expect(abs(t - (self.t_min + i * self.step)) <= 1e-12, "profile grid")
            expect(abs(s_star - c2.param_of(z)) <= 1e-6 and
                   abs(d_min - tp.dist_to_geodesic(c2, z)) <= 1e-6,
                   f"profile row {i} is not the projection")
        expect(math.isfinite(out["M"]) and out["M"] > 0.0, f"M={out['M']}")
        thick = out["thick"]
        expect(thick.epsilon > 0 and thick.F > 0 and thick.short_curve_coeff > 0, "thick params")
        first = ctx.seen.setdefault(("thick", out["L"]), thick)
        expect(first == thick, "thick params differ between calls with the same L")
        r = math.exp(2.0 * (out["M"] + out["L"])) * thick.F
        expect(out["B"] == math.ceil(thick.short_curve_coeff * r * r) and out["B"] >= 1,
               f"B={out['B']}")

    def recheck(self, op, out, ctx):
        again = self.run(op, ctx)
        csv = ctx.tp.profile_csv
        expect(csv(again["rows"]) == csv(out["rows"]) and again["pg"] == out["pg"],
               "identical calls gave different outputs")

    def units(self, op, out):
        return {"pairs": 1, "pairs_s": out["pair_s"], "rows": len(out["rows"]),
                "rows_s": out["profile_s"], "constants": 1, "constants_s": out["constants_s"]}

    def named(self, records):
        n = len(ok_times(records))
        return [("pairs_per_s", rate(records, "pairs"), "1/s", n),
                ("profile_rows_per_s", rate(records, "rows"), "1/s", n),
                ("constants_per_s", rate(records, "constants"), "1/s", n)]


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

CACHE_FILE = ".teichpong-constants.json"


class CliSession(Workload):
    name = "cli_session"
    setup_code = "import teichpong.cli"
    slices = tuple(Slice(k, 1, why) for k, why in (
        ("pingpong_cold", "first command of a session: derives b and writes the cache file"),
        ("classify", "the process floor: import plus an integer trace test"),
        ("axis", "axis data printed to 17 digits"),
        ("pair_thresholds", "pair geometry plus grid-certified thresholds"),
        ("profile", "divergence profile written as CSV"),
        ("pingpong_warm", "same certificate with a warm cache; must be byte-identical"),
        ("certify_free", "certificate plus the word oracle at length 8"),
        ("teich", "Teichmueller distance two ways, Farey depth 500"),
        ("dependent_pair", "bad input: commuting generators must exit 2 with one error line"),
    ))
    probe_why = ("--samples -3 and --box a,b,c,d must exit 2 with one error line; today they "
                 "print a traceback and exit 1 (ROADMAP item 3); reported, not timed")
    trace_cycles = 1

    def cycle(self, seed, index):
        """One session: the commands in a fixed order, sharing one directory."""
        rng = random.Random(f"{self.name}/{seed}/{index}")
        a, b = (",".join(map(str, m)) for m in random_family(rng, 2))
        x1, x2 = (round(rng.uniform(-0.5, 0.5), 6) for _ in range(2))
        y1, y2 = (round(math.exp(rng.uniform(math.log(0.8), math.log(2.5))), 6) for _ in range(2))
        phi = STANDARD_PAIR[0]
        dep = ",".join(map(str, power(phi, 2))), ",".join(map(str, power(phi, 3)))
        pp = ["pingpong", "--matrix", a, "--matrix", b]
        argvs = {
            "pingpong_cold": pp + ["--out", "cert.json"],
            "classify": ["classify", "--matrix", a],
            "axis": ["axis", "--matrix", a],
            "pair_thresholds": ["pair", "--m1", a, "--m2", b, "--thresholds"],
            "profile": ["profile", "--m1", a, "--m2", b, "--csv", "profile.csv"],
            "pingpong_warm": pp + ["--out", "cert-warm.json"],
            "certify_free": ["certify-free", "--matrix", a, "--matrix", b,
                             "--max-word-len", "8", "--out", "words.json"],
            "teich": ["teich", f"--tau1={x1},{y1}", f"--tau2={x2},{y2}", "--farey-depth", "500"],
            "dependent_pair": ["pingpong", "--matrix", dep[0], "--matrix", dep[1]],
        }
        session = f"session-{index}"
        return [Op(k, (session, tuple(argvs[k]))) for k in (s.name for s in self.slices)]

    def probes(self, seed):
        a, b = (",".join(map(str, m)) for m in STANDARD_PAIR)
        pp = ("pingpong", "--matrix", a, "--matrix", b)
        return [Op("bad_samples", ("probes", pp + ("--samples", "-3"))),
                Op("bad_box", ("probes", pp + ("--box", "a,b,c,d")))]

    def run(self, op, ctx):
        session, argv = op.args
        cwd = ctx.workdir / session
        cwd.mkdir(exist_ok=True)
        code, out, err = ctx.cli(list(argv), cwd)
        return {"code": code, "out": out, "err": err, "cwd": cwd}

    def check(self, op, res, ctx):
        kind, (_, argv), cwd = op.kind, op.args, res["cwd"]
        err_lines = [ln for ln in res["err"].splitlines() if ln.startswith("error:")]
        expect("Traceback" not in res["err"], "traceback on stderr")
        if kind in ("dependent_pair", "bad_samples", "bad_box"):
            expect(res["code"] == 2 and len(err_lines) == 1 and
                   len(res["err"].strip().splitlines()) == 1,
                   f"bad input gave exit {res['code']} and {len(err_lines)} error lines")
            return
        expect(res["code"] == 0 and not err_lines, f"exit {res['code']}: {res['err'][-200:]}")
        if kind in ("pingpong_cold", "pingpong_warm"):
            doc = json.loads((cwd / argv[-1]).read_text())
            expect(doc["verification"]["passed"] and (cwd / CACHE_FILE).exists(),
                   "certificate or cache file")
            if kind == "pingpong_warm":
                expect((cwd / "cert.json").read_bytes() == (cwd / argv[-1]).read_bytes(),
                       "warm-cache certificate differs from the cold one")
        elif kind == "classify":
            mat = tuple(int(v) for v in argv[2].split(","))
            expect(res["out"].startswith(f"pseudo_anosov trace={abs(trace(mat))} "), res["out"])
        elif kind == "axis":
            vals = dict(ln.split("=", 1) for ln in res["out"].splitlines())
            rep, att = axis_endpoints(tuple(int(v) for v in argv[2].split(",")))
            expect(abs(float(vals["repelling"]) - rep) <= 1e-9 * max(1.0, abs(rep)) and
                   abs(float(vals["attracting"]) - att) <= 1e-9 * max(1.0, abs(att)),
                   "axis endpoints")
        elif kind == "pair_thresholds":
            m1, m2 = (tuple(int(v) for v in argv[i].split(",")) for i in (2, 4))
            first = res["out"].splitlines()[0]
            expect(first.startswith("independent=true") and
                   f"crossing={str(axes_cross(m1, m2)).lower()}" in first and
                   "P+=" in res["out"], first)
        elif kind == "profile":
            lines = (cwd / "profile.csv").read_text().splitlines()
            expect(lines[0] == "t,s_star,d_min" and len(lines) == 122, "profile CSV")
        elif kind == "certify_free":
            doc = json.loads((cwd / "words.json").read_text())
            expect(doc["words_checked"] == str(words_up_to(2, 8)) and not doc["violations"],
                   "word report")
        elif kind == "teich":
            vals = {}
            for ln in res["out"].splitlines():
                vals.update(kv.split("=", 1) for kv in ln.split())
            z1, z2 = (complex(*map(float, a.split("=", 1)[1].split(","))) for a in argv[1:3])
            exact = model_dist(z1, z2)
            expect(abs(float(vals["teich"]) - exact) <= 1e-9 * max(1.0, exact) and
                   -1e-9 <= exact - float(vals["kerckhoff"]) <= 1e-4, "teich distances")

    def named(self, records):
        times = ok_times(records)
        return [("cli_ms_p50", 1000 * percentile(times, 50), "ms", len(times)),
                ("cli_ms_p90", 1000 * percentile(times, 90), "ms", len(times))]


WORKLOADS = {w.name: w for w in (CertifyFamilies(), OracleWords(), GeometryConstants(), CliSession())}


# ---------------------------------------------------------------------------
# Executing operations
# ---------------------------------------------------------------------------

def execute(workload, op, ctx, index, recheck=False):
    """Time one operation, then check it untimed.  Never raises."""
    tracer = ctx.tracer
    rec = {"kind": op.kind, "seconds": 0.0, "ok": False, "units": {}, "error": None}
    try:
        if tracer is not None:
            tracer.op, tracer.enabled = index, True
        t0 = time.perf_counter()
        try:
            out = workload.run(op, ctx)
        finally:
            rec["seconds"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
        workload.check(op, out, ctx)
        if recheck:
            workload.recheck(op, out, ctx)
        rec["units"] = workload.units(op, out)
        rec["ok"] = True
    except Exception as exc:  # an operation's failure is a result, never the end of the run
        rec["error"] = f"{type(exc).__name__}: {exc}"[:300]
    return rec


def run_cycles(workload, seed, ctx, *, seconds=None, cycles=None, recheck_every=25):
    """Whole cycles until ``seconds`` of wall time or ``cycles`` cycles are done."""
    records = []
    start = time.perf_counter()
    index = 0
    while (cycles is None or index < cycles) and \
            (seconds is None or time.perf_counter() - start < seconds):
        for op in workload.cycle(seed, index):
            n = len(records)
            records.append(execute(workload, op, ctx, n,
                                   recheck=recheck_every and n % recheck_every == 0))
        index += 1
    return records, index
