"""One line that fingerprints the verifier's outcomes over a fixed corpus.

    python tests/outcome_digest.py SRC_DIR

Imports ``teichpong`` from SRC_DIR, builds and verifies every family of
the corpus on every box at 1 and 20,000 samples, then runs the word oracle
to length 4 on each family's N-th powers for its certificate on the default
box, then verifies two families at 0 samples with the radius raised far
above the certified one.  It prints the number of outcomes,
how many of them are errors, and a
SHA-256 over every outcome in order: the certificate or word report
document, or the error's class, message and witness.  Two source trees with
the same line give the same certificates, reports, witnesses and errors on
the corpus.  Not collected by pytest: tests/test_golden.py runs it in a
fresh interpreter and compares its line with tests/golden/outcome_digest.txt,
which the golden rewrite command rewrites with the other documents.

The families are perfbench's seeded pairs (seeds 0-49) and triples (seeds
1000-1009), L^k R beside R^3 L^2 from k = 10 to 10^6, and phi beside two
psi conjugates that failed the float sampled inclusion, which the
verifier no longer runs, and beside 20 others.  The boxes, from the
default box to boxes at the float range and subnormal floors, are those
the sampled checks once drew from; the verifier records them and its
outcome does not depend on them.  The raised radii take (phi, psi) and
L^10 R beside R^3 L^2 at S = 6, 6.25, ..., 56, with R = S - 6b and the
least N the power threshold admits.  They exercise the exact checks where
a float test of the tables would be noise: from S near 18, a point of a
table lies within float rounding of its axis's endpoint.
"""

import hashlib
import random
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOXES = [(-10.0, 10.0, 0.05, 10.0), (-10.0, 10.0, 1e-6, 10.0), (-3.0, 3.0, 1e-3, 3.0),
         (-10.0, 10.0, 0.01, 10.0), (-10.0, 10.0, 1.0, 1e306), (-10.0, 10.0, 1e-320, 10.0),
         (-0.1, 0.1, 1e-320, 0.1)]
SAMPLES = (1, 20_000)
POWERS_OF_L = (10, 100, 10 ** 3, 10 ** 4, 10 ** 5, 283946, 3 * 10 ** 5, 10 ** 6)
NOISE_S = [6.0 + 0.25 * k for k in range(201)]


def corpus(MappingClass):
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import random_family

    phi, psi = MappingClass(2, 1, 1, 1), MappingClass(1, 1, 1, 2)
    L, R = MappingClass(1, 1, 0, 1), MappingClass(1, 0, 1, 1)
    fams = [random_family(random.Random(seed), 2) for seed in range(50)]
    fams += [random_family(random.Random(seed), 3) for seed in range(1000, 1010)]
    fams = [[MappingClass(*m) for m in fam] for fam in fams]
    fams += [[L ** k * R, R ** 3 * L ** 2] for k in POWERS_OF_L]
    conjugates = [c for c in (psi.conjugated_by(phi ** a * L ** b)
                              for a in range(11) for b in range(4)) if c != phi]
    witnesses = [MappingClass(5100816, -8253295, 3152479, -5100819),
                 MappingClass(627359044, -1015088255, 387729211, -627359041)]
    return fams + [[phi, c] for c in witnesses + conjugates[:20]]


def noise_families(MappingClass):
    phi, psi = MappingClass(2, 1, 1, 1), MappingClass(1, 1, 1, 2)
    L, R = MappingClass(1, 1, 0, 1), MappingClass(1, 0, 1, 1)
    return [[phi, psi], [L ** 10 * R, R ** 3 * L ** 2]]


def main(src):
    sys.path.insert(0, str(Path(src).resolve()))
    from teichpong import (MappingClass, TeichpongError, build_certificate, power_bound,
                           verify_pingpong)
    from teichpong.oracle import free_check
    from teichpong.serialize import certificate_document, word_report_document

    def verified(gens, box, samples):
        cert = build_certificate(gens, box=box)
        verify_pingpong(cert, samples)
        return certificate_document(cert)

    def report(gens):
        return word_report_document(free_check(gens, build_certificate(gens).N, 4))

    def noisy(gens, S):
        cert = build_certificate(gens)
        cert.S, cert.R = S, S - 6.0 * cert.b
        cert.N = power_bound(cert.R, cert.b, cert.l_min)
        verify_pingpong(cert, 0)
        return certificate_document(cert)

    fams = corpus(MappingClass)
    runs = [(verified, (gens, box, samples))
            for samples in SAMPLES for gens in fams for box in BOXES]
    runs += [(report, (gens,)) for gens in fams]
    runs += [(noisy, (gens, S)) for gens in noise_families(MappingClass) for S in NOISE_S]
    digest, errors = hashlib.sha256(), 0
    for run, args in runs:
        try:
            outcome = run(*args)
        except TeichpongError as exc:
            outcome = repr((type(exc).__name__, str(exc), getattr(exc, "witness", None)))
            errors += 1
        digest.update(outcome.encode() + b"\0")
    print(f"outcomes={len(runs)} errors={errors} sha256={digest.hexdigest()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/outcome_digest.py SRC_DIR")
    warnings.simplefilter("ignore", RuntimeWarning)
    main(sys.argv[1])
