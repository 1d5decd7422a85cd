"""Benchmark of biclosure: catalog, frontier and subspaces workloads.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One process, one client, closed loop: each request starts when the
previous one has returned, and no worker processes are started
(BICLOSURE_THREADS is cleared). A run sets up several times and keeps
the last set-up, then repeats passes over the workload's fixed request
list for about ``--seconds`` and reports medians over the passes.
Every time is scaled to a fixed machine speed, which a reference loop
timed between requests measures (see speed.py); each row also shows
the raw median pass wall time.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes in which every layer function is wrapped
(see spans.py) and reports the per-layer metrics and the tracing
overhead.
Every verdict is checked against a known answer after the timed passes.
Before the final JSON line, one human-readable row per workload names
every metric with its unit, including ``wrong_verdicts`` and
``failed_frac``, which the JSON line carries as ``correct`` and
``failed``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter, perf_counter_ns, process_time

import spans
import speed
from workloads import WORKLOADS, Failures

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_REPEATS = 9

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _per_layer_spec(span_names):
    """(metric, unit) of every per-layer metric, in reporting order."""
    extra = {
        "cli.emit_json": (("bytes", "bytes"),),
        "poset.enumerate_posets": (("classes", "count"),),
        "poset.find_orthocomplementations": (
            ("calls_per_poset", "calls/poset"), ("perms_scanned", "count")),
        "dualspace.dual_space": (
            ("calls_per_poset", "calls/poset"), ("points", "count")),
        "dualspace.lattice_dual": (("calls_per_poset", "calls/poset"),),
        "dualspace.ideals_filters": (
            ("calls_per_subspace", "calls/subspace"), ("members", "count")),
        "dualspace.is_full": (("false_share", "ratio"),),
        "dualspace.is_separating": (
            ("calls_per_subspace", "calls/subspace"), ("pairs", "count"),
            ("false_share", "ratio")),
        "closure.induced_closures": (
            ("calls_per_subspace", "calls/subspace"), ("closed_sets", "count")),
        "closure.apply": (("calls", "count"),),
        "represent.closure_equations": (("subsets", "count"),),
        "represent.representation_report": (("calls", "count"),),
        "represent.selfdual_subspaces": (
            ("subsets_swept", "count"), ("found", "count"),
            ("hit_ratio", "ratio")),
    }
    spec = []
    for span in span_names:
        spec.append((f"{span}.self_s", "s"))
        spec.extend((f"{span}.{m}", unit) for m, unit in extra.get(span, ()))
    spec += [
        ("trace.overhead_frac", "ratio"),
        ("trace.wrapper_frac", "ratio"),
        ("trace.unattributed_frac", "ratio"),
        ("trace.spans", "count"),
    ]
    return tuple(spec)


# --- program loading and set-up --------------------------------------------------


def load_program() -> dict:
    """Import the package afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n.split(".")[0] == "biclosure"]:
        del sys.modules[name]
    pkg = importlib.import_module("biclosure")
    importlib.import_module("biclosure.cli")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "biclosure"):
        raise ImportError(f"biclosure was imported from {pkg.__file__}, not {SRC}")
    return {n: m for n, m in sys.modules.items() if n.split(".")[0] == "biclosure"}


def set_up(cls, seed, size):
    """Fresh import, seeded input generation and warm-up; returns the
    seconds it took at the reference speed, the modules and the workload.
    The speed is sampled just before and just after."""
    probe = speed.SpeedProbe()
    t0 = perf_counter()
    mods = load_program()
    workload = cls(seed, size, WORK)
    workload.warm_up(mods)
    elapsed = perf_counter() - t0
    return elapsed * probe.end(), mods, workload


def _cpu_s() -> float:
    children = os.times()
    return process_time() + children.children_user + children.children_system


# --- passes ------------------------------------------------------------------------


def _passes(budget_s, body):
    """Call ``body`` at least once, and again while another pass of the
    mean length so far still fits in ``budget_s``."""
    start = perf_counter()
    done = 0
    while True:
        body()
        done += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / done > budget_s:
            return done


def untraced_pass(workload, mods, failures, probe, walls, cpus, latencies):
    """One pass with the speed probe between requests. ``walls`` gets
    (raw, scaled) nanoseconds; CPU time and the pass's list of request
    latencies are scaled alike."""
    inputs = workload.prepare(mods)
    samples = []
    probe.begin()
    cpu0 = _cpu_s()
    t0 = perf_counter_ns()
    outputs = workload.run_pass(mods, inputs, failures, samples, probe.tick)
    wall = perf_counter_ns() - t0 - probe.spent_ns
    cpu = _cpu_s() - cpu0 - probe.spent_cpu_ns / 1e9
    scale = probe.end()
    walls.append((wall, wall * scale))
    cpus.append(cpu * scale)
    latencies.append([x * scale for x in samples])
    workload.keep(outputs)


def traced_pass(workload, mods, failures, tracer, summaries):
    inputs = workload.prepare(mods)
    tracer.reset()
    tracer.install(mods)
    try:
        t0 = perf_counter_ns()
        outputs = workload.run_pass(mods, inputs, failures, None)
        wall = perf_counter_ns() - t0
    finally:
        tracer.uninstall()
    summaries.append(tracer.summary(wall))
    workload.keep(outputs)


# --- metrics -------------------------------------------------------------------------


def _quantile(values, q):
    """The q-th of 100 quantiles, as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups, walls, cpus, latencies, verdicts):
    """Medians over passes; the latency quantiles are taken over each
    request's median latency across the passes."""
    lat_ms = [statistics.median(per_pass) / 1e6 for per_pass in zip(*latencies)]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(w for _, w in walls) / 1e9,
        "cpu_s": statistics.median(cpus),
        "throughput_per_s": statistics.median(verdicts * 1e9 / w for _, w in walls),
        "latency_p50_ms": _quantile(lat_ms, 50),
        "latency_p95_ms": _quantile(lat_ms, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(summaries, untraced_walls, span_names):
    last = summaries[-1]
    counts, distinct = last["counts"], last["distinct"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for span in span_names:
        out[f"{span}.self_s"] = statistics.median(s["self_s"][span] for s in summaries)
        calls = counts.get(f"{span}.calls", 0)
        out[f"{span}.calls"] = calls
        out[f"{span}.calls_per_poset"] = ratio(calls, distinct.get(span, 0))
        out[f"{span}.calls_per_subspace"] = out[f"{span}.calls_per_poset"]
        out[f"{span}.false_share"] = ratio(counts.get(f"{span}.false", 0), calls)
        prefix = span + "."
        for key, value in counts.items():
            if key.startswith(prefix):
                out.setdefault(key, value)
    sweep = "represent.selfdual_subspaces"
    out[f"{sweep}.hit_ratio"] = ratio(
        counts.get(f"{sweep}.found", 0), counts.get(f"{sweep}.subsets_swept", 0))
    traced_wall = statistics.median(s["wall_s"] for s in summaries)
    # traced passes run without the probe, so they compare with raw walls
    out["trace.overhead_frac"] = traced_wall * 1e9 / statistics.median(
        raw for raw, _ in untraced_walls) - 1
    out["trace.wrapper_frac"] = statistics.median(
        s["wrapper_s"] / s["wall_s"] for s in summaries)
    out["trace.unattributed_frac"] = statistics.median(
        s["unattributed_s"] / s["wall_s"] for s in summaries)
    out["trace.spans"] = last["spans"]
    return out


# --- one workload ----------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, size):
    import oracles  # from tests/, on the path once main() has checked it

    cls = WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        dt, mods, workload = set_up(cls, seed, size)
        setups.append(dt)
    failures = Failures()
    probe = speed.SpeedProbe()
    walls, cpus, latencies = [], [], []
    try:
        if trace:
            # untraced and traced passes alternate, so that both see the
            # same drift in machine speed
            tracer, summaries = spans.Tracer(), []
            _passes(seconds, lambda: (
                untraced_pass(workload, mods, failures, probe, walls, cpus, []),
                traced_pass(workload, mods, failures, tracer, summaries)))
            passes = len(walls) + len(summaries)
            spec = _per_layer_spec(spans.SPAN_NAMES)
            values = per_layer(summaries, walls, spans.SPAN_NAMES)
        else:
            _passes(seconds, lambda: untraced_pass(
                workload, mods, failures, probe, walls, cpus, latencies))
            passes = len(walls)
            spec = END_TO_END
            values = end_to_end(setups, walls, cpus, latencies, workload.verdicts)
        wrong = workload.wrong_verdicts(mods, oracles)
    finally:
        workload.cleanup()
    attempted = workload.verdicts * passes
    if failures.first is not None:
        print(f"{name}: {failures.count} failed verdicts, first: {failures.first}",
              file=sys.stderr)
    metrics = {m: {"value": values.get(m, 0), "unit": unit} for m, unit in spec}
    row = {
        "workload": name,
        "seed": seed,
        "passes": passes,
        "requests": len(latencies[0]) if latencies else 0,
        "raw_wall_s": statistics.median(raw for raw, _ in walls) / 1e9,
        "wrong_verdicts": wrong,
        "failed_frac": failures.count / attempted,
    }
    return {
        "row": row,
        "correct": wrong == 0 and failures.count == 0,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": metrics,
    }


def format_row(result) -> str:
    row = result["row"]
    parts = [f"{row['workload']:<10} seed={row['seed']} passes={row['passes']}"]
    for name, m in result["metrics"].items():
        text = f"{name}={m['value']:.6g} {m['unit']}"
        if name.startswith("latency_"):
            text += f" (n={row['requests']} requests x {row['passes']} passes)"
        parts.append(text)
    parts.append(f"raw_wall_s={row['raw_wall_s']:.6g} s")
    parts.append(f"wrong_verdicts={row['wrong_verdicts']} count")
    parts.append(f"failed_frac={row['failed_frac']:.6g} ratio")
    return "  ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "frontier", "subspaces", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    for need in (os.path.join(SRC, "biclosure", "__init__.py"),
                 os.path.join(TESTS, "oracles.py")):
        if not os.path.isfile(need):
            print(f"error: {need} not found; run from a biclosure checkout",
                  file=sys.stderr)
            return 2
    os.environ.pop("BICLOSURE_THREADS", None)
    sys.path.insert(0, SRC)
    sys.path.append(TESTS)
    os.makedirs(WORK, exist_ok=True)

    names = ("catalog", "frontier", "subspaces") if args.workload == "all" else (
        args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.size)
        print(format_row(result), flush=True)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['row']['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
