"""Wall-clock benchmark of the coMtainer simulator.

Run from the repository root::

    python3 wallbench/run.py --workload cold-adapt --seed 1 --seconds 25 --trace 0

Workloads: cold-adapt, warm-readapt, serve-mix, serve-durable-crash (see
``BENCHMARK.json`` for why each was chosen).  A run repeats passes of
its workload until ``--seconds`` of measured work have elapsed and the
latency sample is large enough for a p90, then prints one line per
metric and, last, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every layer function in
``layers.py`` is wrapped and the per-layer metrics are reported instead,
and the spans are written to ``.wallbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pkgutil
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".wallbench_out")
REFS = os.path.join(HERE, "refs.json")

#: Set-ups per run for a workload that sets up once, not per pass; the
#: reported ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest passes per run, so every run reports a median of set-ups.
MIN_PASSES = 3
#: Largest share of a traced run's wall time that may lie outside every
#: probed function.
MAX_UNATTRIBUTED = 0.2

E2E_UNITS = {
    "setup_s": "s",
    "adapt_per_s": "1/s",
    "adapt_ms.p50": "ms",
    "adapt_ms.p90": "ms",
    "cpu_ms_per_adapt": "ms",
    "peak_mem_mb": "MB",
}


def load_program(every_module: bool = False):
    """Import the simulator from this checkout's ``src/``; exits 2 when
    it is absent (never measuring a copy installed elsewhere).

    With *every_module*, import every ``repro`` module up front, so a
    probe finds every binding of the functions it wraps.  Untraced runs
    leave it off, so their peak memory holds only what the workload
    imports.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"wallbench: no simulator sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import repro
    if every_module:
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)


def measure(workload, seconds: float, tracer=None):
    """Set up and run passes until *seconds* of passes have elapsed.

    Returns the tally, the set-up times, one ``(completed, wall, cpu)``
    row per pass and the gate's findings.
    """
    from stats import Tally, min_samples
    from workloads import GateError

    tally = Tally()
    setups = []
    passes = []
    problems = []

    def setup() -> None:
        # Free the previous pass's cyclic garbage first, so peak memory
        # does not depend on when the collector happened to run.
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)

    if not workload.setup_per_pass:
        for _ in range(SETUP_REPEATS):
            setup()
    need = min_samples(0.9)
    wall = 0.0
    while wall < seconds or tally.attempted < need or len(passes) < MIN_PASSES:
        if workload.setup_per_pass:
            setup()
        wall_start, cpu_start = time.perf_counter(), time.process_time()
        if tracer is not None:
            with tracer.window(f"pass{len(passes)}"):
                result = workload.run_pass()
        else:
            result = workload.run_pass()
        cpu = time.process_time() - cpu_start
        elapsed = time.perf_counter() - wall_start
        completed = tally.completed
        try:
            workload.check(result, tally)
        except GateError as exc:
            problems.append(str(exc))
        # Drop the pass's outputs before the next set-up, so two passes
        # never live at once.
        del result
        passes.append((tally.completed - completed, elapsed, cpu))
        wall += elapsed
    return tally, setups, passes, problems


def end_to_end(tally, setups, passes):
    """The end-to-end metrics.  Throughput and process time per
    adaptation are medians over passes, so a slow spell of the machine
    that covers a minority of passes does not move them."""
    from stats import percentile

    rates = [done / wall for done, wall, _ in passes]
    cpu_per = [cpu * 1e3 / done for done, _, cpu in passes if done]
    return {
        "setup_s": statistics.median(setups),
        "adapt_per_s": statistics.median(rates),
        "adapt_ms.p50": _ms(percentile(tally.samples, 0.5)),
        "adapt_ms.p90": _ms(percentile(tally.samples, 0.9)),
        "cpu_ms_per_adapt": statistics.median(cpu_per) if cpu_per else None,
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program(every_module=bool(args.trace))
    import layers
    from tracer import Patcher, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    with open(REFS, encoding="utf-8") as fh:
        refs = json.load(fh)

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, refs, tracer=tracer)
    start = time.perf_counter()
    workload.calibrate()
    calibrate_s = time.perf_counter() - start
    if tracer is not None:
        Patcher(tracer).install(layers.probes())
    tally, setups, passes, problems = measure(workload, args.seconds, tracer)

    for note in workload.notes:
        print(f"note: {note}")
    for failure in tally.failures[:20]:
        print(f"failed: {failure}")
    wall = sum(row[1] for row in passes)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, "
          f"{tally.attempted} adaptations ({tally.failed} failed, "
          f"failed_frac={tally.failed_frac():.4f}), measured {wall:.2f} s wall, "
          f"{len(setups)} set-ups, calibration {calibrate_s:.2f} s")

    e2e = end_to_end(tally, setups, passes)
    if tracer is None:
        metrics = {name: (e2e[name], unit) for name, unit in E2E_UNITS.items()}
        samples = {"setup_s": len(setups), "adapt_per_s": len(passes),
                   "adapt_ms.p50": tally.attempted,
                   "adapt_ms.p90": tally.attempted,
                   "cpu_ms_per_adapt": len(passes)}
    else:
        metrics, trace_problems = traced_metrics(args, tracer, e2e)
        problems.extend(trace_problems)
        samples = {}
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        extra = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:28s} {shown:>14s} {unit}{extra}")
    for problem in dict.fromkeys(problems):
        print(f"gate: {problem}")

    correct = not problems and tally.failed == 0 and all(
        value is not None for value, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def traced_metrics(args, tracer, e2e):
    """Per-layer metrics of a traced run, plus its own consistency checks."""
    import layers
    from tracer import ROOT as PASS

    summary = tracer.summary()
    values = layers.layer_metrics(summary, tracer.counts)
    root = summary[PASS]
    values["trace.wall_s"] = root["busy"]
    values["trace.unattributed_s"] = root["self"]
    values["trace.spans"] = len(tracer.start)
    values["trace.adapt_ms.p50"] = e2e["adapt_ms.p50"]
    values["trace.cpu_ms_per_adapt"] = e2e["cpu_ms_per_adapt"]
    problems = []
    silent = layers.silent_layers(args.workload, summary)
    if silent:
        problems.append("layers predicted to work recorded no calls: "
                        + ", ".join(silent))
    # Layer self times plus the unattributed time equal the traced wall
    # time by construction (one thread, strictly nested spans), so the
    # gate is on the unattributed share instead: it grows when work moves
    # out of the probed functions.
    if root["self"] > MAX_UNATTRIBUTED * root["busy"]:
        problems.append(f"unattributed time {root['self']:.3g} s exceeds "
                        f"{MAX_UNATTRIBUTED:.0%} of the traced wall time "
                        f"{root['busy']:.3g} s")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans"))
    units = layers.per_layer_metrics()
    return {name: (values[name], unit) for name, unit in units.items()}, problems


if __name__ == "__main__":
    sys.exit(main())
