"""One ``scbm`` CLI call in a fresh process, reported as one JSON line on stdout.

Usage: ``python3 perfbench/child.py '<spec json>'``, where the spec holds
``src`` (the directory that contains the ``scbm`` package), ``argv`` (the CLI
arguments), ``setup`` (lazy set-up calls) and ``trace`` (install the tracer).
The parent reads the last stdout line; the process exits with the CLI's code.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

MARKER = "PERFBENCH "


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import scbm.cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    skipped = []
    for module, function, args in spec["setup"]:
        fn = getattr(importlib.import_module(f"scbm.{module}"), function, None)
        if fn is None:
            skipped.append(f"{module}.{function}")
        else:
            fn(*args)
    ready = time.monotonic()

    cpu_start = time.process_time()
    start = time.perf_counter()
    code = scbm.cli.main(spec["argv"])
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start

    report = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_skipped": skipped,
        "trace": tracer.report() if tracer else None,
    }
    sys.stdout.flush()
    print(MARKER + json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
