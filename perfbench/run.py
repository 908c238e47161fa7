"""Repository benchmark: verify a seeded synthetic report three ways.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {report,tenants,gateway} --seed N \\
        [--seconds S] [--trace 0|1]

Each pass of a workload runs in a fresh interpreter (``child.py``), so
each pass pays a cold start and ``setup_s`` is a median over passes.  A
run makes ``--seconds // PASS_SECONDS[workload]`` passes (at least two):
the count depends on ``--seconds`` alone, never on how fast the passes
ran, so every run of a seed verifies the same inputs, however fast the
program.  Pass i verifies the inputs of seed ``100 * seed + i``, so one
run averages over several corpora and scripts; on ``report`` and
``tenants`` the quality metrics repeat exactly for a seed.  Before every
pass the command times a fixed reference kernel (a pure-Python loop and
a numpy matmul) and prints it beside the metrics, so a slow set can be
traced to the host rather than the code.  The workloads, why each exists, the layers each loads and
bypasses, and which layer metric should move which end-to-end metric are
documented in ``workloads.py``.

End-to-end metrics (``--trace 0``), every timing with its sample count:
``claims_per_s`` (verified claims over the wall time from the first
submission to the last verdict, summed over passes),
``verdict_latency_p50_s``/``_p95_s`` (per claim, submission sent to
verdict received; the median over passes of each pass's), ``setup_s``
(median over passes of a cold import of the workload's entry package
plus construction until the first claim is accepted; corpus generation
not counted), ``recovery_s`` (median restart after a graceful stop),
``checker_s_per_claim`` (the paper's simulated verification seconds per
verified claim), ``verdict_accuracy`` (decided verdicts equal to ground
truth), ``classifier_accuracy`` (mean ``average`` accuracy over every
accuracy-history entry) and ``peak_rss_mb``.  These are the metrics
``BENCHMARK.json`` bounds, and the last line's ``metrics``.

``gateway`` also prints ``ack_latency_p50_s``/``_p95_s`` (a frame's
submit→ack round trip, journal append and group-commit fsync included)
and records them in its result file, but they carry no bound: they
follow the host's fsync latency and interpreter-lock contention, which
moved the same seed's p50 from 3.3 to 7.0 ms within minutes on a shared
two-vCPU VM, and the in-process workloads have no ack.

With ``--trace 1`` the run makes half as many pairs of passes (at least
one): an untraced pass, then a traced one over the same inputs.  The
traced ones wrap each layer's entry points (``tracer.py``) and the
command prints the per-layer table, with the tracing overhead as the
traced passes' ``claims_per_s`` over the untraced ones'.

Correctness: every submitted (tenant, claim) pair gets exactly one
verdict; each program report agrees with the verdicts streamed to the
client; on ``gateway`` the journal committed, appended and acked counts
agree and the restarted gateway recovers with nothing outstanding and
the streamed verdicts.  A failed check makes the command exit 1.

Results and spans go to ``perfbench-out/`` (untracked); the committed
``BENCH_*.json`` files are never touched.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_OPS, per_layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"
WORKLOADS = ("report", "tenants", "gateway")

MIN_PASSES = 2
#: About one pass's wall time on a two-vCPU host, from which the pass
#: count is sized: 3, 3 and 2 passes at ``--seconds 41``.
PASS_SECONDS = {"report": 13.5, "tenants": 11.0, "gateway": 18.0}
#: The whole command must end within 180 s; a pass still running at this
#: point is killed and the command fails.
DEADLINE_S = 170.0

#: name → (unit, better); the order of the printed table.
END_TO_END = {
    "claims_per_s": ("claims/s", "higher"),
    "verdict_latency_p50_s": ("s", "lower"),
    "verdict_latency_p95_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "recovery_s": ("s", "lower"),
    "checker_s_per_claim": ("s/claim", "lower"),
    "verdict_accuracy": ("share", "higher"),
    "classifier_accuracy": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
#: Printed and recorded on ``gateway`` only, without a bound.
ACK_METRICS = {
    "ack_latency_p50_s": ("s", "lower"),
    "ack_latency_p95_s": ("s", "lower"),
}


class PassError(Exception):
    """A pass crashed or printed no result."""


def host_probe(matrix) -> dict[str, float]:
    """Time the fixed reference kernel, a Python loop and a numpy matmul.

    Each is the median of five repetitions: on a shared two-vCPU VM the
    host's speed moved by tens of percent within a second.
    """
    loops, matmuls = [], []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value
        looped = time.perf_counter()
        for _ in range(5):
            matrix @ matrix
        loops.append(looped - started)
        matmuls.append(time.perf_counter() - looped)
    return {
        "python_loop_ms": statistics.median(loops) * 1000.0,
        "matmul_ms": statistics.median(matmuls) * 1000.0,
    }


def input_seed(seed: int, variant: int) -> int:
    """The seed of the inputs a run's ``variant``-th distinct pass verifies."""
    return 100 * seed + variant


def schedule(workload: str, seconds: int, trace: bool) -> list[tuple[int, bool]]:
    """``(variant, traced)`` for each pass of a run, in order."""
    passes = max(MIN_PASSES, int(seconds // PASS_SECONDS[workload]))
    if trace:
        return [(i, traced) for i in range(max(1, passes // 2)) for traced in (False, True)]
    return [(i, False) for i in range(passes)]


def run_pass(workload: str, seed: int, deadline: float, env: dict[str, str], *,
             trace: bool = False, spans: Path | None = None) -> dict:
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace))]
    if spans is not None:
        command += ["--spans", str(spans)]
    started = time.perf_counter()
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as error:
        raise PassError(f"{workload} pass still running at the {DEADLINE_S:.0f}s deadline") from error
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise PassError(
            f"{workload} pass exited {completed.returncode}: {completed.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(share * len(ordered)) - 1))]


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric as ``(value, sample description)``."""
    verified = sum(p["verified"] for p in passes)
    runs = f"{len(passes)} passes"
    restarts = [x for p in passes for x in p["restarts_s"]]
    decided = sum(p["decided"] for p in passes)
    history = [x for p in passes for x in p["accuracy_averages"]]
    return {
        "claims_per_s": (
            verified / sum(p["traffic_s"] for p in passes), f"{verified} claims, {runs}"
        ),
        **percentiles("verdict_latency", [p["verdict_latencies"] for p in passes], "claims"),
        "setup_s": (
            statistics.median(p["setup_s"] for p in passes), f"median of {len(passes)} cold starts"
        ),
        "recovery_s": (statistics.median(restarts), f"median of {len(restarts)} restarts"),
        "checker_s_per_claim": (
            sum(p["checker_seconds"] for p in passes) / verified, f"{verified} claims"
        ),
        "verdict_accuracy": (
            sum(p["correct_verdicts"] for p in passes) / decided, f"{decided} decided verdicts"
        ),
        "classifier_accuracy": (statistics.fmean(history), f"{len(history)} history entries"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), f"median of {runs}"),
    }


def percentiles(name: str, samples: list[list[float]], what: str) -> dict[str, tuple[float, str]]:
    """``<name>_p50_s`` and ``_p95_s``: the median over passes of each pass's.

    Pooling passes would not do: a pass's verdicts arrive in batches, so
    its latencies are steps, and the pooled median jumps between the
    steps of whichever passes ran faster.
    """
    counts = "/".join(str(len(values)) for values in samples)
    described = f"median of {len(samples)} passes of {counts} {what}"
    return {
        f"{name}_p50_s": (statistics.median(statistics.median(v) for v in samples), described),
        f"{name}_p95_s": (statistics.median(percentile(v, 0.95) for v in samples), described),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Median over traced passes of each per-layer metric, plus the overhead."""
    metrics = {}
    for name, _, _ in per_layer_names():
        values = [p["per_layer"].get(name, 0.0) for p in traced]
        metrics[name] = statistics.median(values)

    def rate(passes):
        return statistics.median(p["verified"] / p["traffic_s"] for p in passes)

    metrics["trace.claims_per_s_ratio"] = rate(traced) / rate(untraced)
    return metrics


def print_end_to_end(metrics: dict[str, tuple[float, str]]) -> None:
    print(f"{'metric':<24} {'value':>14}  {'unit':<9} samples")
    for name, (unit, _) in {**END_TO_END, **ACK_METRICS}.items():
        if name in metrics:
            value, samples = metrics[name]
            print(f"{name:<24} {value:>14.6g}  {unit:<9} {samples}")


def print_per_layer(metrics: dict[str, float]) -> None:
    print(f"{'operation':<32} {'calls':>8} {'busy_s':>10} {'self_s':>10}")
    for op in LAYER_OPS:
        calls = metrics[f"{op}.calls"]
        if calls:
            print(
                f"{op:<32} {calls:>8.0f} {metrics[f'{op}.busy_s']:>10.4f} "
                f"{metrics[f'{op}.self_s']:>10.4f}"
            )
        else:
            print(f"{op:<32} {'absent':>8}")
    print("counters:")
    for name, unit, _ in per_layer_names():
        if not name.endswith((".calls", ".busy_s", ".self_s")):
            print(f"  {name:<30} {metrics[name]:>12.6g} {unit}")
    fits, rehydrations, refits = (
        metrics[name] for name in ("text.fit.calls", "serving.rehydrations", "text.vocab_refits")
    )
    print(
        f"text.fit.calls {fits:.0f} = {fits - rehydrations - refits:.0f} at build + "
        f"{rehydrations:.0f} rehydrations + {refits:.0f} vocabulary refits"
    )
    print(
        f"per restart: {metrics['gateway.restart_store_loads']:.0f} snapshot files parsed "
        f"for {metrics['gateway.restart_tenants']:.0f} tenants, recover_server "
        f"{metrics['gateway.restart_recover_s']:.4f} s"
    )
    print(f"tracing overhead: traced/untraced claims_per_s = "
          f"{metrics['trace.claims_per_s_ratio']:.3f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=41)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # The probe's matmul runs on one BLAS thread: on a two-vCPU VM a
    # two-threaded OpenBLAS took 40x longer for its first few hundred
    # calls.  The passes keep the caller's environment.
    env = dict(os.environ)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy as np

    matrix = np.random.default_rng(0).random((200, 200))
    probes: list[dict[str, float]] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + DEADLINE_S
    try:
        for number, (variant, trace_this) in enumerate(
            schedule(args.workload, args.seconds, bool(args.trace))
        ):
            probes.append(host_probe(matrix))
            result = run_pass(
                args.workload, input_seed(args.seed, variant), deadline, env, trace=trace_this,
                spans=OUT / f"spans-{tag}-pass{number}.json" if trace_this else None,
            )
            (traced if trace_this else untraced).append(result)
    except PassError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    passes = untraced + traced
    errors = [message for p in passes for message in p["errors"]]
    attempted = sum(p["submitted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if errors:
        # A pass that failed a check may have verified nothing to measure.
        for message in errors:
            print(f"CHECK FAILED: {message}")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    e2e = end_to_end(untraced)
    if args.workload == "gateway":
        e2e.update(percentiles("ack_latency", [p["ack_latencies"] for p in untraced], "acks"))
    layers = per_layer(traced, untraced) if traced else None
    probe = {key: statistics.median(p[key] for p in probes) for key in probes[0]}

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced passes")
    print(f"host probe (median of {len(probes)}): python loop {probe['python_loop_ms']:.2f} ms, "
          f"matmul {probe['matmul_ms']:.2f} ms")
    print_end_to_end(e2e)
    if layers is not None:
        print_per_layer(layers)
    print(f"attempted {attempted} failed {failed}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host_probe": probes,
        "end_to_end": {name: {"value": v, "samples": s} for name, (v, s) in e2e.items()},
        "per_layer": layers,
        "attempted": attempted,
        "failed": failed,
        "passes": [
            {key: value for key, value in p.items()
             if key not in ("verdict_latencies", "ack_latencies", "accuracy_averages")}
            for p in passes
        ],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    if args.trace:
        metrics = {
            name: {"value": layers[name], "unit": unit} for name, unit, _ in per_layer_names()
        }
    else:
        metrics = {
            name: {"value": e2e[name][0], "unit": unit} for name, (unit, _) in END_TO_END.items()
        }
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
