"""One cold weilcoh CLI call, run in a fresh interpreter by the harness.

    python3 child.py setup
    python3 child.py plain -- <cli argv>
    python3 child.py trace -- <cli argv>

The package is imported first, before anything else, so that the import
time (read on the system-wide monotonic clock) is what a user of the CLI
pays.  The last line of standard output is one JSON object with the
measurements and the CLI's own output document.
"""

import time

import weilcoh.cli

IMPORTED = time.monotonic()

import io  # noqa: E402  (after the timed import on purpose)
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402


def _call(argv, tracer=None):
    if tracer is not None:
        replaced, missing = tracer.install()
        stale = tracer.stale_bindings()
    out = io.StringIO()
    with redirect_stdout(out):
        t0, c0 = time.monotonic(), time.process_time()
        try:
            code = weilcoh.cli.main(argv)
        except Exception:  # the real CLI would die with exit code 1
            traceback.print_exc()
            code = 1
        wall, cpu = time.monotonic() - t0, time.process_time() - c0
    result = {
        "exit": code,
        "doc": out.getvalue(),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = {
            "metrics": tracer.metrics(),
            "self_total_s": tracer.self_total(),
            "replaced": sorted(".".join(p) for p in replaced),
            "missing": missing,
            "stale": sorted(".".join(p) for p in stale),
        }
    return result


def main(argv):
    mode = argv[0]
    result = {"imported": IMPORTED, "module": weilcoh.cli.__file__}
    if mode == "plain":
        result.update(_call(argv[2:]))
    elif mode == "trace":
        from tracer import Tracer
        result.update(_call(argv[2:], Tracer()))
    elif mode != "setup":
        raise SystemExit("unknown mode %r" % mode)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
