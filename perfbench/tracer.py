"""Spans around teichpong's public functions, recorded from outside the package.

``install`` replaces every public function of the traced modules, and the
public methods (plus ``__mul__`` and ``__pow__``) of their classes, with a
wrapper.  The replacement is made in the defining module and in every
``teichpong`` module that imported the name, so calls inside the package
are traced too.  Each call is a span: name, start and end in ns, parent
span and operation id.  Spans are kept in memory, up to a cap past which
only the totals are kept, and written out at the end.  A module's self time
is the time of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from collections import Counter
from time import perf_counter_ns

MODULES = ("hyp2", "mcg", "torus_model", "projection", "pingpong", "oracle",
           "serialize", "cache", "cli")
TRACED_DUNDERS = ("__mul__", "__pow__")
SCALAR_HYP2 = ("hyp2.dist", "hyp2.dist_to_geodesic", "hyp2.project",
               "hyp2.Geodesic.point_at", "hyp2.Geodesic.param_of")

#: per-layer metric, unit, which way is better, and the end-to-end metric it
#: should move (on which workload)
LAYER_TABLE = (
    ("pingpong.verify_s", "s", "lower", "families_per_s, family_ms_p50 (certify_families)"),
    ("pingpong.verify_samples_per_s", "1/s", "higher",
     "families_per_s, family_ms_p50 (certify_families)"),
    ("pingpong.sample_box_s", "s", "lower", "families_per_s, family_ms_p50 (certify_families)"),
    ("pingpong.build_s", "s", "lower", "families_per_s, family_ms_p50 (certify_families)"),
    ("mcg.pow_s", "s", "lower", "family_ms_p50 (certify_families)"),
    ("mcg.axis_calls", "count", "lower", "families_per_s (certify_families)"),
    ("mcg.axis_s", "s", "lower", "families_per_s (certify_families)"),
    ("mcg.mul_calls", "count", "lower", "words_per_s (oracle_words)"),
    ("oracle.free_check_s", "s", "lower",
     "words_per_s (oracle_words); family_ms_p90 (certify_families)"),
    ("oracle.words", "count", "lower",
     "words_per_s (oracle_words); family_ms_p90 (certify_families)"),
    ("oracle.words_per_s", "1/s", "higher",
     "words_per_s (oracle_words); family_ms_p90 (certify_families)"),
    ("oracle.violations", "count", "lower", "words_per_s (oracle_words)"),
    ("hyp2.scalar_calls", "count", "lower",
     "profile_rows_per_s, pairs_per_s (geometry_constants)"),
    ("hyp2.array_points", "count", "lower", "families_per_s (certify_families)"),
    ("projection.profile_s", "s", "lower", "profile_rows_per_s (geometry_constants)"),
    ("projection.profile_rows", "count", "lower", "profile_rows_per_s (geometry_constants)"),
    ("projection.pair_geometry_s", "s", "lower", "pairs_per_s (geometry_constants)"),
    ("projection.thresholds_s", "s", "lower", "pairs_per_s (geometry_constants)"),
    ("projection.morse_s", "s", "lower", "constants_per_s (geometry_constants)"),
    ("projection.morse_calls", "count", "lower", "constants_per_s (geometry_constants)"),
    ("projection.b_s", "s", "lower", "setup_s (certify_families, cli_session cold call)"),
    ("torus_model.thick_s", "s", "lower", "constants_per_s (geometry_constants)"),
    ("torus_model.thick_calls", "count", "lower", "constants_per_s (geometry_constants)"),
    ("torus_model.thick_memo_hits", "count", "higher", "constants_per_s (geometry_constants)"),
    ("torus_model.kerckhoff_s", "s", "lower", "cli_ms_p90 (cli_session, teich)"),
    ("serialize.document_ms", "ms", "lower",
     "family_ms_p50 (certify_families); cli_ms_p50 (cli_session)"),
    ("serialize.bytes", "B", "lower",
     "family_ms_p50 (certify_families); cli_ms_p50 (cli_session)"),
    ("cache.hits", "count", "higher", "cli_ms_p50 (cli_session)"),
    ("cache.misses", "count", "lower", "cli_ms_p50 (cli_session)"),
    ("cache.load_ms", "ms", "lower", "cli_ms_p50 (cli_session)"),
    ("cache.flush_ms", "ms", "lower", "cli_ms_p50 (cli_session)"),
    ("cli.import_s", "s", "lower", "cli_ms_p50 (cli_session); setup_s (all)"),
    ("cli.main_ms_p50", "ms", "lower", "cli_ms_p50 (cli_session); setup_s (all)"),
    ("cli.startup_share", "frac", "lower", "cli_ms_p50 (cli_session); setup_s (all)"),
) + tuple((f"{m}.self_s", "s", "lower", "the end-to-end metrics of the workloads that call it")
          for m in MODULES) + (
    ("trace.spans", "count", "lower", "none: spans recorded in the traced pass"),
    ("trace.overhead_frac", "frac", "lower", "none: traced wall over untraced wall, minus 1"),
)


def _memo_before(tracer, args, kwargs):
    """Trace memo's compute argument as a span of the module that defined it;
    a call to it means the memo missed."""
    key, compute = args
    flag = []

    def counted():
        flag.append(True)
        return compute()

    module = compute.__module__.rsplit(".", 1)[-1]
    return (key, tracer.wrap(f"{module}.memo_compute", module, counted)), kwargs, flag


def _memo_after(tracer, flag, args, result):
    tracer.extra["cache.misses" if flag else "cache.hits"] += 1


def _thick_before(tracer, args, kwargs):
    return args, kwargs, tracer.calls["torus_model.systole"]


def _thick_after(tracer, systole_calls, args, result):
    # a derivation walks the systole grid; a memo hit returns without it
    if tracer.calls["torus_model.systole"] == systole_calls:
        tracer.extra["torus_model.thick_memo_hits"] += 1


def _free_check_after(tracer, state, args, result):
    tracer.extra["oracle.words"] += result.words_checked
    tracer.extra["oracle.violations"] += len(result.violations)


def _count(key, measure):
    def after(tracer, state, args, result):
        tracer.extra[key] += measure(args, result)
    return None, after


HOOKS = {
    "cache.memo": (_memo_before, _memo_after),
    "torus_model.derive_thick_params": (_thick_before, _thick_after),
    "hyp2.Geodesic.params_of_array": _count("hyp2.array_points", lambda a, r: len(r)),
    "oracle.free_check": (None, _free_check_after),
    "projection.divergence_profile": _count("projection.profile_rows", lambda a, r: len(r)),
    "pingpong.verify_pingpong": _count("pingpong.samples", lambda a, r: r["sample_budget"]),
    "serialize.certificate_document": _count("serialize.bytes", lambda a, r: len(r.encode())),
    "serialize.word_report_document": _count("serialize.bytes", lambda a, r: len(r.encode())),
}


class Tracer:
    """Spans and per-name totals of one process; enabled only around operations."""

    def __init__(self, span_cap=50_000):
        self.enabled = False
        self.op = -1
        self.span_cap = span_cap
        self.spans = []          # (name, start_ns, end_ns, parent index, op id)
        self.n_spans = 0
        self.calls = Counter()   # by span name
        self.incl_ns = Counter()  # by span name, outermost call of a recursion only
        self.self_ns = Counter()  # by module
        self.extra = Counter()    # counts the hooks take from arguments and results
        self.lists = {}           # per-invocation samples (CLI child processes)
        self._stack = []
        self._active = Counter()

    def wrap(self, name, module, fn):
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = None
            if before is not None:
                args, kwargs, state = before(tracer, args, kwargs)
            tracer.calls[name] += 1
            index = tracer.n_spans
            tracer.n_spans += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            tracer._active[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer._active[name] -= 1
                duration = end - start
                tracer.self_ns[module] += duration - frame[1]
                if not tracer._active[name]:
                    tracer.incl_ns[name] += duration
                if stack:
                    stack[-1][1] += duration
                if index < tracer.span_cap:
                    tracer.spans.append((name, start, end, parent, tracer.op))
            if after is not None:
                after(tracer, state, args, result)
            return result

        return traced

    def merge(self, other):
        """Add a child process's dump (see ``dump``) to this tracer."""
        for field in ("calls", "incl_ns", "self_ns", "extra"):
            getattr(self, field).update(other[field])
        for key, values in other["lists"].items():
            self.lists.setdefault(key, []).extend(values)
        base = self.n_spans
        room = max(0, self.span_cap - len(self.spans))
        self.spans.extend((n, s, e, p + base if p >= 0 else -1, self.op)
                          for n, s, e, p, _ in other["spans"][:room])
        self.n_spans += other["n_spans"]

    def dump(self):
        return {"calls": self.calls, "incl_ns": self.incl_ns, "self_ns": self.self_ns,
                "extra": self.extra, "lists": self.lists, "spans": self.spans,
                "n_spans": self.n_spans}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")

    def metrics(self):
        """Every per-layer metric of LAYER_TABLE except trace.overhead_frac."""
        def secs(name):
            return self.incl_ns[name] / 1e9

        def med(key):
            values = self.lists.get(key, [])
            return statistics.median(values) if values else 0.0

        verify_s, free_s = secs("pingpong.verify_pingpong"), secs("oracle.free_check")
        out = {
            "pingpong.verify_s": verify_s,
            "pingpong.verify_samples_per_s":
                self.extra["pingpong.samples"] / verify_s if verify_s else 0.0,
            "pingpong.sample_box_s": secs("pingpong.sample_box_points"),
            "pingpong.build_s": secs("pingpong.build_certificate"),
            "mcg.pow_s": secs("mcg.MappingClass.__pow__"),
            "mcg.axis_calls": self.calls["mcg.axis"],
            "mcg.axis_s": secs("mcg.axis"),
            "mcg.mul_calls": self.calls["mcg.MappingClass.__mul__"],
            "oracle.free_check_s": free_s,
            "oracle.words": self.extra["oracle.words"],
            "oracle.words_per_s": self.extra["oracle.words"] / free_s if free_s else 0.0,
            "oracle.violations": self.extra["oracle.violations"],
            "hyp2.scalar_calls": sum(self.calls[n] for n in SCALAR_HYP2),
            "hyp2.array_points": self.extra["hyp2.array_points"],
            "projection.profile_s": secs("projection.divergence_profile"),
            "projection.profile_rows": self.extra["projection.profile_rows"],
            "projection.pair_geometry_s": secs("projection.pair_geometry"),
            "projection.thresholds_s": secs("projection.fast_divergence_thresholds"),
            "projection.morse_s": secs("projection.derive_morse"),
            "projection.morse_calls": self.calls["projection.derive_morse"],
            "projection.b_s": secs("projection.derive_contraction_b"),
            "torus_model.thick_s": secs("torus_model.derive_thick_params"),
            "torus_model.thick_calls": self.calls["torus_model.derive_thick_params"],
            "torus_model.thick_memo_hits": self.extra["torus_model.thick_memo_hits"],
            "torus_model.kerckhoff_s": secs("torus_model.kerckhoff_dist"),
            "serialize.document_ms": 1000 * (secs("serialize.certificate_document")
                                             + secs("serialize.word_report_document")),
            "serialize.bytes": self.extra["serialize.bytes"],
            "cache.hits": self.extra["cache.hits"],
            "cache.misses": self.extra["cache.misses"],
            "cache.load_ms": 1000 * secs("cache.enable"),
            "cache.flush_ms": 1000 * secs("cache.flush"),
            "cli.import_s": med("cli.import_s"),
            "cli.main_ms_p50": med("cli.main_ms"),
            "cli.startup_share": med("cli.startup_share"),
        }
        out.update({f"{m}.self_s": self.self_ns[m] / 1e9 for m in MODULES})
        out["trace.spans"] = self.n_spans
        return out


def install(tracer, package):
    """Wrap the public functions of MODULES wherever a teichpong module holds them."""
    prefix = package.__name__
    wrapped = {}
    for short in MODULES:
        module = importlib.import_module(f"{prefix}.{short}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", short, obj)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (not meth.startswith("_")
                                                   or meth in TRACED_DUNDERS):
                        setattr(obj, meth, tracer.wrap(f"{short}.{obj.__name__}.{meth}", short, fn))
    for name, module in list(sys.modules.items()):
        if name == prefix or name.startswith(prefix + "."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
