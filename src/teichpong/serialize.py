"""Canonical structured-text output.

Certificates and reports are JSON-shaped UTF-8 documents with keys in fixed
(insertion) order, floats printed with 17 significant digits, and exact
integers carried as decimal strings; huge integers (factorial-sized) are
reported by digit count instead of being expanded.  Identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

import json
import math

from .errors import InvalidInputError
from .mcg import axis

#: integers at most this long are serialized as full decimal strings
FULL_DECIMAL_DIGITS = 60


def digit_count(n: int) -> int:
    """Number of decimal digits of a positive integer, without str() on huge inputs.

    Uses bit length plus the top 64 bits; the float error is far below the
    guard band, and a borderline mantissa falls back to exact comparison.
    """
    if n <= 0:
        raise InvalidInputError("digit_count needs a positive integer")
    bits = n.bit_length()
    if bits <= 53:
        return len(str(n))
    top = n >> (bits - 64)
    log10 = (bits - 64) * math.log10(2.0) + math.log10(top)
    d = math.floor(log10) + 1
    frac = log10 - math.floor(log10)
    if min(frac, 1.0 - frac) < 1e-9:
        # exact but slow tie-break, essentially never taken
        return d if n >= 10 ** (d - 1) and n < 10 ** d else (d + 1 if n >= 10 ** d else d - 1)
    return d


def exact_int(n: int):
    """Decimal string for small exact integers, digit-count record otherwise."""
    if abs(n) < 10 ** FULL_DECIMAL_DIGITS:
        return str(n)
    return {"digit_count": digit_count(n)}


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvalidInputError(f"cannot serialize non-finite float {x}")
    return format(x, ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, int):
        if abs(obj) >= 2 ** 63:
            raise InvalidInputError("huge integers must be pre-rendered with exact_int")
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + canonical_json(v, indent + 2) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise InvalidInputError("canonical documents use string keys")
            items.append(pad + "  " + json.dumps(k) + ": " + canonical_json(v, indent + 2))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise InvalidInputError(f"cannot serialize {type(obj).__name__}")


def dump_document(obj) -> str:
    return canonical_json(obj) + "\n"


def _point_pair(p):
    return [p.x, p.y]


def certificate_to_dict(cert) -> dict:
    gens = []
    for m in cert.generators:
        ax = axis(m)
        gens.append({
            "matrix": [exact_int(v) for v in m.entries()],
            "trace": exact_int(m.trace),
            "translation": ax.translation,
            "dilatation": ax.dilatation,
            "axis": {
                "repelling": ax.repelling.value,
                "attracting": ax.attracting.value,
                "origin": _point_pair(ax.axis.origin),
            },
        })
    doc = {
        "format": "teichpong.certificate.v1",
        "mode": cert.mode,
        "generators": gens,
        "b": cert.b,
        "l_min": cert.l_min,
        "R": cert.R if isinstance(cert.R, float) else exact_int(cert.R),
        "S": cert.S,
        "N": exact_int(cert.N),
        "N_digit_count": digit_count(cert.N),
        "per_pair_projection_intervals": [
            {"target": i, "source": j, "lo": lo, "hi": hi}
            for (i, j), (lo, hi) in sorted(cert.intervals.items())
        ],
        "pair_geometry": [
            {"i": i, "j": j, "D": pg.D, "crossing": pg.crossing,
             "t_O": pg.t_O, "s_O": pg.s_O,
             "O": _point_pair(pg.O), "O_prime": _point_pair(pg.O_prime)}
            for (i, j), pg in sorted(cert.pair_data.items())
        ],
        "paper_constants": None,
        "config": cert.config,
        "verification": cert.verification,
    }
    if cert.paper is not None:
        pc = cert.paper
        doc["paper_constants"] = {
            "L": pc.L,
            "F": pc.F,
            "M": pc.M,
            "B": exact_int(pc.B),
            "R_paper": exact_int(pc.R_paper),
            "R_paper_digit_count": digit_count(pc.R_paper),
            "N_paper": exact_int(pc.N_paper),
            "N_paper_digit_count": digit_count(pc.N_paper),
        }
    return doc


def certificate_document(cert) -> str:
    return dump_document(certificate_to_dict(cert))


def word_report_to_dict(report) -> dict:
    # wall time is volatile and intentionally left out of the canonical form
    return {
        "format": "teichpong.word-report.v1",
        "n_generators": report.n_generators,
        "N": exact_int(report.N),
        "max_word_length": report.max_word_length,
        "words_checked": exact_int(report.words_checked),
        "violations": list(report.violations),
        "incomplete": report.incomplete,
    }


def word_report_document(report) -> str:
    return dump_document(word_report_to_dict(report))
