"""Run teichpong's command line under the benchmark's tracer.

    python3 perfbench/traced_cli.py DUMP.json ARGV...

Imports ``teichpong.cli`` (timed), installs the wrappers, runs
``teichpong.cli.main(ARGV)`` as one traced operation and writes the
tracer's dump to DUMP.json, whatever the command's outcome; the exit code,
output and any traceback are the command's own.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402


def main():
    dump, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import teichpong.cli
    import_s = time.perf_counter() - t0
    tr = tracing.Tracer()
    tracing.install(tr, sys.modules["teichpong"])
    tr.op, tr.enabled = 0, True
    t1 = time.perf_counter()
    try:
        code = teichpong.cli.main(argv)
    finally:
        main_ms = 1000 * (time.perf_counter() - t1)
        tr.enabled = False
        tr.lists = {"cli.import_s": [import_s], "cli.main_ms": [main_ms]}
        dump.write_text(json.dumps(tr.dump()))
    sys.exit(code)


if __name__ == "__main__":
    main()
