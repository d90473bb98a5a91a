"""Command-line surface for the whole pipeline.

Exit codes: 0 success / certificate valid; 1 a verification or oracle check
failed (witness printed); 2 invalid input.  Errors are one-line and
machine-parsable: "error: <kind>: <detail>".
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from . import cache
from .errors import (CertificateInvalidError, HorizonExceededError, InvalidInputError,
                     NotIndependentError, TeichpongError)
from .hyp2 import Point
from .mcg import (Classification, MappingClass, axis, classify, fixed_slope_test,
                  independent, translation_distance)

# The handlers import the rest of the package themselves, so a command loads
# only the modules it runs, numpy only where the verifier draws a sample
# block (never on the decided default box), and serialize only where it
# writes a document.

#: most samples `pingpong` and `certify-free` verify; config.samples records --samples as given
SAMPLE_CAP = 100_000


def _parse_point(text: str) -> Point:
    try:
        xs, ys = text.split(",")
        return Point(float(xs), float(ys))
    except ValueError as exc:
        raise InvalidInputError(f"expected 'x,y', got {text!r}") from exc


def _write_out(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write {path!r}: {exc.strerror}") from exc


def _add_common(p):
    p.add_argument("--no-cache", action="store_true", help="keep derived constants in memory only")


def _add_sampling(p):
    p.add_argument("--seed", type=int, default=0, help="seed for all Monte Carlo draws")
    p.add_argument("--samples", type=int, default=100_000,
                   help=f"Monte Carlo sample budget; at most {SAMPLE_CAP} are verified, "
                   "and the certificate records the value given")
    p.add_argument("--out", default=None, help="certificate/report destination (default stdout)")
    _add_common(p)


def _parse_box(text):
    try:
        parts = tuple(float(v) for v in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 4 or not all(map(math.isfinite, parts)):
        raise InvalidInputError(f"expected finite 'x_lo,x_hi,y_lo,y_hi', got {text!r}")
    return parts


class _Parser(argparse.ArgumentParser):
    """Reports a bad argv as one invalid-input error instead of a usage block."""

    def error(self, message):
        raise InvalidInputError(message)


#: options whose values may start with a minus sign, like the box -10,10,0.05,10
_SIGNED_VALUE_OPTIONS = ("--box", "--matrix", "--m1", "--m2", "--tau1", "--tau2",
                         "--t-min", "--t-max")


def _attach_signed_values(argv):
    """Write ``--box -1,1,0.05,10`` as ``--box=-1,1,0.05,10``.

    argparse reads a value that starts with a single minus sign, and is not
    one plain number, as an option; the attached form is always a value.
    """
    out = []
    for arg in argv:
        if (out and out[-1] in _SIGNED_VALUE_OPTIONS
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="teichpong",
                 description="quantitative ping-pong on the modular torus")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="trace classification of one matrix")
    p.add_argument("--matrix", required=True, help="integers 'a,b,c,d' with ad-bc=1")
    _add_common(p)

    p = sub.add_parser("axis", help="axis data of a hyperbolic matrix")
    p.add_argument("--matrix", required=True)
    _add_common(p)

    p = sub.add_parser("pair", help="nearest-point geometry of two axes")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--thresholds", action="store_true", help="also certify fast-divergence thresholds")
    _add_common(p)

    p = sub.add_parser("profile", help="divergence profile CSV between two axes")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--t-min", type=float, default=-3.0)
    p.add_argument("--t-max", type=float, default=3.0)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--csv", default=None, help="profile destination (default stdout)")
    _add_common(p)

    p = sub.add_parser("pingpong", help="build and verify a free-powers certificate")
    p.add_argument("--matrix", action="append", required=True,
                   help="a generator 'a,b,c,d'; repeat at least twice")
    p.add_argument("--mode", choices=["paper", "certified"], default="certified")
    p.add_argument("--box", default=None, help="sampling box 'x_lo,x_hi,y_lo,y_hi'")
    _add_sampling(p)

    p = sub.add_parser("certify-free", help="certificate plus exact word-oracle cross-check")
    p.add_argument("--matrix", action="append", required=True)
    p.add_argument("--max-word-len", type=int, default=6)
    p.add_argument("--box", default=None)
    _add_sampling(p)

    p = sub.add_parser("teich", help="distance between two points, two ways")
    p.add_argument("--tau1", required=True, help="point 'x,y'")
    p.add_argument("--tau2", required=True)
    p.add_argument("--farey-depth", type=int, default=500)
    _add_common(p)

    return ap


def _cmd_classify(args) -> int:
    m = MappingClass.from_string(args.matrix)
    kind = classify(m)
    if kind is Classification.PSEUDO_ANOSOV:
        print(f"pseudo_anosov trace={m.trace} Tr={translation_distance(m):.5f}")
    elif kind is Classification.PARABOLIC:
        if m.is_projective_identity():
            print("parabolic trace=2 (identity)")
        else:
            print(f"parabolic trace={m.trace} slope={fixed_slope_test(m)}")
    else:
        print(f"elliptic trace={m.trace}")
    return 0


def _cmd_axis(args) -> int:
    m = MappingClass.from_string(args.matrix)
    ax = axis(m)
    print(f"repelling={ax.repelling.value:.17g}")
    print(f"attracting={ax.attracting.value:.17g}")
    print(f"translation={ax.translation:.17g}")
    print(f"dilatation={ax.dilatation:.17g}")
    print(f"origin={ax.axis.origin.x:.17g},{ax.axis.origin.y:.17g}")
    return 0


def _cmd_pair(args) -> int:
    from . import projection

    m1 = MappingClass.from_string(args.m1)
    m2 = MappingClass.from_string(args.m2)
    ok = independent(m1, m2)
    if not ok:
        print("independent=false")
        raise NotIndependentError("generators share an axis (common power)")
    pg = projection.pair_geometry(m1, m2)
    print(f"independent=true D={pg.D:.17g} crossing={str(pg.crossing).lower()}")
    print(f"O={pg.O.x:.17g},{pg.O.y:.17g} t_O={pg.t_O:.17g}")
    print(f"O'={pg.O_prime.x:.17g},{pg.O_prime.y:.17g} s_O={pg.s_O:.17g}")
    c1, c2 = axis(m1).axis, axis(m2).axis
    lo, hi = projection.projection_interval(c1, c2)
    print(f"interval_on_1=[{lo:.17g},{hi:.17g}]")
    lo, hi = projection.projection_interval(c2, c1)
    print(f"interval_on_2=[{lo:.17g},{hi:.17g}]")
    if args.thresholds:
        th = projection.fast_divergence_thresholds(m1, m2)
        print(f"P+={th.p_plus:.17g} P-={th.p_minus:.17g} "
              f"Q+={th.q_plus:.17g} Q-={th.q_minus:.17g}")
    return 0


def _cmd_profile(args) -> int:
    from . import projection

    m1 = MappingClass.from_string(args.m1)
    m2 = MappingClass.from_string(args.m2)
    rows = projection.divergence_profile(m1, m2, args.t_min, args.t_max, args.step)
    _write_out(args.csv, projection.profile_csv(rows))
    return 0


def _cmd_pingpong(args) -> int:
    from . import pingpong, serialize

    gens = [MappingClass.from_string(s) for s in args.matrix]
    box = pingpong.DEFAULT_BOX if args.box is None else _parse_box(args.box)
    mode = "paper_formula" if args.mode == "paper" else "certified_search"
    cert = pingpong.build_certificate(gens, mode, seed=args.seed, samples=args.samples, box=box)
    try:
        pingpong.verify_pingpong(cert, sample_budget=min(args.samples, SAMPLE_CAP))
    except TeichpongError:
        # the certificate records the failed check, but the verifier's error
        # decides the message and the exit code
        with contextlib.suppress(TeichpongError):
            _write_out(args.out, serialize.certificate_document(cert))
        raise
    _write_out(args.out, serialize.certificate_document(cert))
    n_desc = str(cert.N) if cert.N < 10 ** 18 else f"<{serialize.digit_count(cert.N)} digits>"
    print(f"certificate-valid mode={cert.mode} N={n_desc}", file=sys.stderr)
    return 0


def _cmd_certify_free(args) -> int:
    from . import oracle, pingpong, serialize

    gens = [MappingClass.from_string(s) for s in args.matrix]
    box = pingpong.DEFAULT_BOX if args.box is None else _parse_box(args.box)
    oracle.check_word_length(len(gens), args.max_word_len)
    cert = pingpong.build_certificate(gens, seed=args.seed, samples=args.samples, box=box)
    pingpong.verify_pingpong(cert, sample_budget=min(args.samples, SAMPLE_CAP))
    report = oracle.free_check(gens, cert.N, args.max_word_len)
    _write_out(args.out, serialize.word_report_document(report))
    if report.violations:
        raise CertificateInvalidError("word oracle found a relation", witness=report.violations[0])
    print(f"free-check-clean words={report.words_checked} N={cert.N}", file=sys.stderr)
    return 0


def _cmd_teich(args) -> int:
    from . import torus_model

    t1 = _parse_point(args.tau1)
    t2 = _parse_point(args.tau2)
    kerckhoff = torus_model.kerckhoff_dist(t1, t2, args.farey_depth)
    print(f"teich={torus_model.teich_dist(t1, t2):.17g}")
    print(f"kerckhoff={kerckhoff:.17g} depth={args.farey_depth}")
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "axis": _cmd_axis,
    "pair": _cmd_pair,
    "profile": _cmd_profile,
    "pingpong": _cmd_pingpong,
    "certify-free": _cmd_certify_free,
    "teich": _cmd_teich,
}

#: error kinds that mean a failed check rather than bad input
_CHECK_FAILURES = (CertificateInvalidError, HorizonExceededError)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_attach_signed_values(argv))
        if not args.no_cache:
            cache.enable()
        else:
            cache.disable()
        code = _COMMANDS[args.command](args)
        cache.flush()
        return code
    except _CHECK_FAILURES as exc:
        witness = getattr(exc, "witness", None)
        suffix = f" witness={witness}" if witness is not None else ""
        print(f"error: {exc.code}: {exc}{suffix}", file=sys.stderr)
        return 1
    except TeichpongError as exc:
        print(f"error: {getattr(exc, 'code', 'error')}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
