"""Canonical bytes pinned against stored documents.

Each document under tests/golden/ was written by an earlier commit; a change
that moves any of its bytes fails here until the file is rewritten and
CHANGES.md says what changed and why.  Rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

from teichpong import cache
from teichpong.cli import main
from teichpong.projection import derive_contraction_b, derive_morse

GOLDEN = pathlib.Path(__file__).parent / "golden"
PAIR = ["--matrix", "2,1,1,1", "--matrix", "1,1,1,2"]


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--no-cache"])
    assert code == 0
    return out.getvalue()


def _constants_file(tmp_dir):
    path = pathlib.Path(tmp_dir) / "constants.json"
    try:
        cache.enable(str(path))
        derive_contraction_b()
        derive_morse(2.0, 0.7)
        cache.flush()
    finally:
        cache.disable()
    return path.read_text(encoding="utf-8")


DOCUMENTS = {
    "certificate.json": lambda tmp: _stdout(["pingpong", *PAIR, "--samples", "2000"]),
    "words.json": lambda tmp: _stdout(["certify-free", *PAIR, "--max-word-len", "8"]),
    "constants.json": _constants_file,
    "pair_thresholds.txt": lambda tmp: _stdout(
        ["pair", "--m1", "2,1,1,1", "--m2", "3,8,1,3", "--thresholds"]),
    # crossing axes with offset 0.70, and disjoint axes with offset 2.05
    "pair_thresholds_crossing.txt": lambda tmp: _stdout(
        ["pair", "--m1", "2,1,1,1", "--m2", "1,1,1,2", "--thresholds"]),
    "pair_thresholds_disjoint.txt": lambda tmp: _stdout(
        ["pair", "--m1", "2,1,1,1", "--m2", "3,1,2,1", "--thresholds"]),
    "axis.txt": lambda tmp: _stdout(["axis", "--matrix", "2,1,1,1"]),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_bytes_unchanged(name, tmp_path):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert DOCUMENTS[name](tmp_path) == expected


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    for name, make in DOCUMENTS.items():
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_text(make(tmp), encoding="utf-8", newline="\n")
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
