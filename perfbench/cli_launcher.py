"""Traced stand-in for `nmvmrisk <args>`: installs the span wrappers in this
fresh process, then calls nmvmrisk.cli.main(argv).

    PERFBENCH_TRACE_DIR=<dir> python3 perfbench/cli_launcher.py risk ...

It writes its spans and a summary to <dir>/cli-<pid>.{npz,json} and exits
with main's exit code.
"""

from __future__ import annotations

import os
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import nmvmrisk.cli
    import_s = time.perf_counter() - t0

    import json
    from pathlib import Path

    import numpy as np

    import spans

    out = Path(os.environ["PERFBENCH_TRACE_DIR"])
    tracer = spans.Tracer()
    tracer.install()
    code = tracer.span(spans.ROOT_SPAN, lambda: nmvmrisk.cli.main(sys.argv[1:]))
    summary = tracer.summary()
    summary["cli.import_s"] = import_s
    summary["cli.launchers"] = 1.0
    summary["trace.wall_s"] = summary[f"{spans.ROOT_SPAN}.total_s"]
    stem = out / f"cli-{os.getpid()}"
    np.savez_compressed(f"{stem}.npz", **tracer.arrays())
    Path(f"{stem}.json").write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
