"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass so that every pass pays, and
measures, a cold import.  The set-up clock runs while the workload's
entry package is imported and again from the system's construction until
it accepts its first claim; it is stopped while the corpus is generated
and the BLAS thread pool is warmed (:func:`warm_blas`).  With
``--trace 1`` the tracer wraps the layers' entry points after the
imports and before construction, and the spans are written to
``--spans`` at the end.

The last line of standard output is the pass's JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The package each workload's user imports first.
ENTRY_PACKAGES = {"report": "repro.api", "tenants": "repro.serving", "gateway": "repro.gateway"}
WARM_CALLS = 10
WARM_CALL_S = 0.002
WARM_LIMIT_S = 3.0


def warm_blas() -> None:
    """Multiply until ``WARM_CALLS`` 200×200 matmuls in a row are fast.

    On a two-vCPU VM a cold two-thread OpenBLAS spent 0.3–1.1 s of slow
    calls before settling.  Left in the pass, that cost landed at random in
    the second batch's retrain and moved ``report``'s median verdict
    latency by ±15%; it is the library's warm-up, not the program's work,
    so no metric counts it.
    """
    import numpy as np

    matrix = np.random.default_rng(0).random((200, 200))
    fast = 0
    limit = time.perf_counter() + WARM_LIMIT_S
    while fast < WARM_CALLS and time.perf_counter() < limit:
        started = time.perf_counter()
        matrix @ matrix
        fast = fast + 1 if time.perf_counter() - started < WARM_CALL_S else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(ENTRY_PACKAGES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    importlib.import_module(ENTRY_PACKAGES[args.workload])
    import_s = time.perf_counter() - started

    import workloads

    corpus = workloads.make_corpus(args.seed)
    warm_blas()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = ROOT / "perfbench-out" / f"work-{os.getpid()}"
    try:
        result = workloads.RUNNERS[args.workload](corpus, args.seed, workdir)
    except workloads.CheckFailed as error:
        result = workloads.PassResult(errors=[str(error)], failed=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload = dataclasses.asdict(result)
    payload["seed"] = args.seed
    payload["import_s"] = import_s
    payload["setup_s"] = import_s + result.build_s
    payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        payload["per_layer"] = {**tracer.per_layer(result.traffic_end), **result.counters}
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
