"""Start-up: each command loads only the modules it runs, and the package none eagerly.

Every check runs in a fresh interpreter and reads its ``sys.modules`` at the
end, since this test process has long loaded the whole package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: every name the package exports, each loaded from its module on first use
EXPORTS = (
    "AxisData BoundaryPoint CertificateInvalidError Classification ClassificationError "
    "ConstantDerivationError DegenerateInputError DichotomyViolationError FViolationError "
    "Geodesic HorizonExceededError InvalidInputError MappingClass Mobius ModelConstants "
    "NotIndependentError OracleRefusedError PairGeometry PaperConstants PingPongCertificate "
    "Point Slope TeichpongError ThickParams Thresholds WordReport axis build_certificate "
    "classify common_perpendicular_distance count_reduced_words cross_validate curve_length "
    "default_thick_params derive_contraction_b derive_morse derive_thick_params dist "
    "dist_to_geodesic divergence_profile fast_divergence_thresholds fixed_slope_test "
    "free_check independent kerckhoff_dist marking min_translation model_constants "
    "pair_geometry paper_constants paper_radius_bound power_bound profile_csv "
    "short_curve_bound short_curves systole "
    "teich_dist translation_distance verify_pingpong wolpert_check"
).split()
#: exports that nothing in the package, perfbench or the acceptance suite calls
UNCALLED_EXPORTS = {
    "cross_validate": "the README's library example",
    "marking": "the tests' reference for the marking bound F",
    "systole": "the tests' reference for the systole floor epsilon",
}
SUBMODULES = ("cache", "cli", "errors", "hyp2", "mcg", "oracle", "pingpong", "projection",
              "serialize", "torus_model")


def _run(code, cwd):
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_modules(argv, cwd):
    code = ("import json, sys\n"
            "from teichpong.cli import main\n"
            f"code = main({argv!r})\n"
            "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n")
    out = _run(code, cwd)
    return out["code"], set(out["modules"])


def _has_numpy(modules):
    return any(m == "numpy" or m.startswith("numpy.") for m in modules)


@pytest.mark.parametrize("argv, code", [
    (["classify", "--matrix", "2,1,1,1"], 0),
    (["axis", "--matrix", "2,1,1,1"], 0),
    (["pair", "--m1", "2,1,1,1", "--m2", "3,8,1,3"], 0),
    (["pair", "--m1", "2,1,1,1", "--m2", "3,8,1,3", "--thresholds"], 0),
    (["profile", "--m1", "2,1,1,1", "--m2", "3,8,1,3"], 0),
    (["teich", "--tau1", "0,1", "--tau2", "0.3,2", "--farey-depth", "2000"], 0),
    # (phi^2, phi^3) share an axis: refused before a certificate is built
    (["pingpong", "--matrix", "5,3,3,2", "--matrix", "13,8,8,5"], 2),
], ids=["classify", "axis", "pair", "pair-thresholds", "profile", "teich",
        "pingpong-dependent"])
def test_command_loads_no_numpy(argv, code, tmp_path):
    got, modules = _cli_modules([*argv, "--no-cache"], tmp_path)
    assert got == code
    assert not _has_numpy(modules)
    assert "teichpong.oracle" not in modules
    assert argv[0] == "pingpong" or "teichpong.pingpong" not in modules
    # only the handlers that write documents load serialize
    assert argv[0] == "pingpong" or "teichpong.serialize" not in modules
    assert "dataclasses" not in modules and "inspect" not in modules


@pytest.mark.parametrize("argv", [
    ["pingpong", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2", "--samples", "100"],
    ["certify-free", "--matrix", "2,1,1,1", "--matrix", "1,1,1,2", "--samples", "100"],
], ids=["pingpong", "certify-free"])
def test_verifying_commands_load_no_numpy(argv, tmp_path):
    # no check draws a sample, on the default box or on any other
    for box in ("-10,10,0.05,10", "-10,10,1e-6,10", "-10,10,1,1e306"):
        got, modules = _cli_modules([*argv, f"--box={box}", "--no-cache"], tmp_path)
        assert got == 0
        assert not _has_numpy(modules)
        assert "dataclasses" not in modules and "inspect" not in modules
        # only paper mode derives the thick-part constants
        assert "teichpong.torus_model" not in modules


def test_no_module_imports_numpy():
    for path in (SRC / "teichpong").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not _has_numpy(names), (path.name, node.lineno)


def test_paper_mode_verification_and_morse_load_no_numpy(tmp_path):
    # the paper-shaped certificate of test_paper_mode_analytic_verification
    code = ("import json, sys\n"
            "from teichpong.mcg import MappingClass, min_translation\n"
            "from teichpong.pingpong import (PingPongCertificate, build_certificate,\n"
            "                                verify_pingpong)\n"
            "from teichpong.projection import derive_morse\n"
            "cert = build_certificate([MappingClass(2, 1, 1, 1), MappingClass(1, 1, 1, 2)])\n"
            "paper_like = PingPongCertificate(\n"
            "    generators=cert.generators, mode='paper_formula', b=0.5,\n"
            "    l_min=min_translation(), R=8, S=None, N=23, intervals=cert.intervals,\n"
            "    pair_data=cert.pair_data, paper=None, config=dict(cert.config))\n"
            "passed = verify_pingpong(paper_like, 100)['passed']\n"
            "M = derive_morse(2.0, 0.7)\n"
            "print(json.dumps({'passed': passed, 'M': M, 'modules': sorted(sys.modules)}))\n")
    out = _run(code, tmp_path)
    assert out["passed"] and out["M"] > 0.0
    assert not _has_numpy(out["modules"])


def test_cli_import_loads_no_dataclasses(tmp_path):
    out = _run("import json, sys, teichpong.cli\nprint(json.dumps(sorted(sys.modules)))",
               tmp_path)
    assert "dataclasses" not in out and "inspect" not in out
    assert "teichpong.serialize" not in out and not _has_numpy(out)


def test_bare_import_loads_no_module(tmp_path):
    out = _run("import json, sys, teichpong\nprint(json.dumps(sorted(sys.modules)))", tmp_path)
    assert not _has_numpy(out)
    assert [m for m in out if m.startswith("teichpong")] == ["teichpong"]


def test_every_name_resolves_after_a_bare_import(tmp_path):
    code = ("import json, teichpong\n"
            f"names = {EXPORTS!r}\n"
            f"subs = {SUBMODULES!r}\n"
            "exports = {n: getattr(teichpong, n).__module__ for n in names}\n"
            "modules = {s: getattr(teichpong, s).__name__ for s in subs}\n"
            "print(json.dumps({'exports': exports, 'modules': modules,\n"
            "                  'all': sorted(teichpong.__all__)}))\n")
    out = _run(code, tmp_path)
    assert set(out["exports"]) == set(EXPORTS)
    assert all(m.startswith("teichpong.") for m in out["exports"].values())
    assert out["modules"] == {s: f"teichpong.{s}" for s in SUBMODULES}
    assert out["all"] == sorted(EXPORTS)


def test_every_export_has_a_caller():
    # a name or an attribute of that name anywhere in the package's modules,
    # perfbench or the acceptance suite counts as a call
    files = [*(SRC / "teichpong").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    used = set()
    for path in files:
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    import teichpong
    uncalled = set(teichpong.__all__) - used
    assert uncalled - UNCALLED_EXPORTS.keys() == set()  # delete these, or call them
    assert UNCALLED_EXPORTS.keys() - uncalled == set()  # these have callers now


def test_exports_are_the_modules_objects():
    import teichpong
    from teichpong import hyp2, pingpong, torus_model
    assert teichpong.Point is hyp2.Point
    assert teichpong.verify_pingpong is pingpong.verify_pingpong
    assert teichpong.kerckhoff_dist is torus_model.kerckhoff_dist
    with pytest.raises(AttributeError):
        teichpong.no_such_name


def test_importtime_of_classify_shows_no_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "teichpong.cli", "classify",
                           "--matrix", "2,1,1,1"], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.startswith("pseudo_anosov")
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "teichpong.hyp2" in imported
    assert not _has_numpy(imported)
    assert "dataclasses" not in imported and "inspect" not in imported
