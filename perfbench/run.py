"""Benchmark of the pbpoplus BDD reduction engine.

    python3 perfbench/run.py --workload bdd-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  One process and one thread
call the public API in a closed loop, one call at a time, until the timed
calls add up to ``--seconds``.  Set-up runs three times and ``setup_s``
reports the import time plus the median set-up.  Every output passes a
correctness gate outside the timed region; a wrong or failed call is
counted in ``failed`` and never raised.

With ``--trace 0`` the result carries the end-to-end metrics, with every
timing scaled to a nominal machine speed (see ``speed.py``).  With
``--trace 1`` every operation runs twice, untraced and then traced, and
the result carries the per-layer metrics of the traced runs, unscaled; the
spans are written to ``.bench_build/perfbench/``.  The last line of
standard output is the JSON result; a readable report goes to standard
error.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
STEP_BUCKETS = ((0, 15), (16, 31), (32, 63), (64, 127), (128, 255))
# Workload -> names of the items-per-second and ms-per-item figures in the
# readable report: an item is a rewrite step, or a strong match found.
ITEM_NAMES = {"bdd-sweep": ("steps_per_s", "ms_per_step"),
              "bdd-large": ("steps_per_s", "ms_per_step"),
              "match-all": ("matches_per_s", "ms_per_match")}


def import_engine() -> tuple[float, float]:
    """Import pbpoplus from this checkout's ``src``; return the (start, end)
    of the import."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import pbpoplus  # noqa: F401
    return start, time.perf_counter()


class Runner:
    """Runs one workload's operations and gates their outputs."""

    def __init__(self, workload, ops) -> None:
        self.workload = workload
        self.ops = ops
        # Operations of mixed sizes are run in whole passes, so every run
        # measures the same mix.
        self.pass_len = len(ops) if workload.mixed_sizes else 1
        self.attempted = 0
        self.failed = 0

    def run_once(self, index: int, tracer=None):
        """Time one call on a fresh input.  Return (start, end, output);
        the output is None when the call raised or its result failed the
        gate."""
        wl = self.workload
        op = self.ops[index % len(self.ops)]
        arg = wl.prepare(op)
        gc.collect()
        self.attempted += 1
        out = None
        context = tracer.operation(self.attempted) if tracer else nullcontext()
        start = end = time.perf_counter()
        try:
            with context:
                start = time.perf_counter()
                out = wl.call(arg)
                end = time.perf_counter()
        except Exception:
            end = time.perf_counter()
            traceback.print_exc()
        del arg
        if out is not None:
            try:
                ok = wl.check(index % len(self.ops), op, out)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                print(f"perfbench: wrong output for operation {index}", file=sys.stderr)
                out = None
        if out is None:
            self.failed += 1
        return start, end, out


def measure(runner: Runner, seconds: float, gauge: speed.SpeedGauge) -> dict:
    """Run operations until their raw call time reaches ``seconds`` and a
    pass over the operations is complete."""
    spans, raw, items = [], [], 0
    while not raw or sum(raw) < seconds or len(raw) % runner.pass_len:
        start, end, out = runner.run_once(len(raw))
        spans.append((start, end))
        raw.append(gauge.raw(start, end))
        if out is not None:
            items += runner.workload.items(out)
        out = None
    time.sleep(speed.WINDOW_S)   # let the gauge sample after the last call
    scaled = [t * gauge.factor(*span) for t, span in zip(raw, spans)]
    return {"raw": raw, "scaled": scaled, "items": items}


def timing_metrics(times: list[float], items: int) -> dict:
    total = sum(times)
    return {"ops_per_s": (len(times) / total, "1/s"),
            "op_ms.p50": (statistics.median(times) * 1000, "ms"),
            "ms_per_item": (total * 1000 / max(items, 1), "ms")}


def measure_traced(runner: Runner, seconds: float, tracer) -> dict:
    untraced, traced, step_ms, id_len = [], [], [], 0
    index = 0
    while (not traced or sum(untraced) + sum(traced) < seconds
           or index % runner.pass_len):
        start, end, out = runner.run_once(index)
        untraced.append(end - start)
        out = None
        start, end, out = runner.run_once(index, tracer)
        traced.append(end - start)
        if out is not None:
            op = runner.ops[index % len(runner.ops)]
            id_len = max(id_len, max(runner.workload.id_lengths(op, out), default=0))
            step_ms += step_times(tracer, runner.attempted,
                                  runner.workload.step_hosts(out))
        out = None
        index += 1
    metrics = layer_metrics(tracer, len(traced), sum(traced), step_ms, id_len)
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(untraced), "ratio")
    return metrics


def step_times(tracer, op: int, hosts: list[int]) -> list[tuple[int, float]]:
    """(host nodes, ms) per rewrite step of one traced reduction.  A step
    runs from the end of the previous step (or the start of ``normalize``)
    to the end of its ``pbpo_step``, so it includes the match search."""
    runs = tracer.op_spans(op, "rewriting.normalize")
    if not runs:
        return []
    mark = runs[0][0]
    out = []
    for size, (_, end) in zip(hosts, tracer.op_spans(op, "rewriting.pbpo_step")):
        out.append((size, (end - mark) * 1000))
        mark = end
    return out


def layer_metrics(tracer, n_ops: int, traced_s: float, step_ms: list,
                  id_len: int) -> dict:
    """Per-layer metrics; counts and times are per traced operation.
    ``traced_s`` is the wall time of the traced calls."""
    agg = tracer.aggregate
    metrics: dict[str, tuple[float, str]] = {}

    def per_op(value: float) -> float:
        return value / n_ops

    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (per_op(sum(
            a.self_s for n, a in zip(tracer.names, tracer.aggregates)
            if n.startswith(layer + "."))), "s")
    for name in ("lattice.join", "lattice.meet", "limits.pullback",
                 "limits.pushout", "graph.validate_morphism"):
        metrics[f"{name}.calls"] = (per_op(agg(name).calls), "count")
        metrics[f"{name}.self_s"] = (per_op(agg(name).self_s), "s")
    metrics["limits.square_check.self_s"] = (per_op(
        agg("limits.is_pullback_square").self_s
        + agg("limits.is_pushout_square").self_s), "s")

    scans = agg("matching.iter_matches")
    checks = agg("matching.check_strong_match").calls
    metrics["matching.iter_matches.next_calls"] = (per_op(scans.calls), "count")
    metrics["matching.iter_matches.self_s"] = (per_op(scans.self_s), "s")
    metrics["matching.find_matches.self_s"] = (per_op(agg("matching.find_matches").self_s), "s")
    metrics["matching.check_strong_match.calls"] = (per_op(checks), "count")
    metrics["matching.hit_ratio"] = (scans.yields / checks if checks else 0.0, "ratio")

    metrics["graph.compose.self_s"] = (per_op(agg("graph.compose").self_s), "s")
    metrics["graph.rename.self_s"] = (per_op(agg("graph.rename").self_s), "s")
    metrics["graph.max_id_len"] = (float(id_len), "chars")

    steps = agg("rewriting.pbpo_step").calls
    verify_s = agg("rewriting.verify_trace").total_s
    metrics["rewriting.pbpo_step.self_s"] = (per_op(agg("rewriting.pbpo_step").self_s), "s")
    metrics["rewriting.verify_trace.total_s"] = (per_op(verify_s), "s")
    metrics["rewriting.verify_share"] = (verify_s / traced_s, "ratio")
    metrics["rewriting.rule_scans_per_step"] = (
        tracer.created["matching.iter_matches"] / steps if steps else 0.0, "count")
    for lo, hi in STEP_BUCKETS:
        in_bucket = [ms for size, ms in step_ms if lo <= size <= hi]
        metrics[f"rewriting.step_ms.by_host_nodes.{lo}-{hi}"] = (
            statistics.median(in_bucket) if in_bucket else 0.0, "ms")

    metrics["bdd.reduction_rules.total_s"] = (per_op(agg("bdd.reduction_rules").total_s), "s")
    metrics["bdd.validate_bdd.total_s"] = (per_op(agg("bdd.validate_bdd").total_s), "s")
    metrics["trace.coverage"] = (sum(a.self_s for a in tracer.aggregates) / traced_s, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ITEM_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pbpoplus" / "__init__.py").is_file():
        print(f"perfbench: pbpoplus sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.trace:
        return report(args, *run_traced(args))
    with speed.SpeedGauge() as gauge:
        return report(args, *run_scaled(args, gauge))


def set_up(args):
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    spans = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        ops = workload.setup(args.seed)
        spans.append((start, time.perf_counter()))
    return Runner(workload, ops), spans


def run_scaled(args, gauge: speed.SpeedGauge):
    import_span = import_engine()
    runner, setup_spans = set_up(args)
    stats = measure(runner, args.seconds, gauge)

    def nominal(spans):
        return statistics.median(gauge.raw(*s) * gauge.factor(*s) for s in spans)

    metrics = {"setup_s": (nominal([import_span]) + nominal(setup_spans), "s")}
    metrics.update(timing_metrics(stats["scaled"], stats["items"]))
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    per_s, ms_per = ITEM_NAMES[args.workload]
    ops_per_s, op_p50, ms_per_item = timing_metrics(stats["raw"], stats["items"]).values()
    extras = {per_s: (1000 / metrics["ms_per_item"][0], "1/s"),
              ms_per: metrics["ms_per_item"]}
    if len(stats["scaled"]) >= 100:
        extras["op_ms.p90"] = (statistics.quantiles(stats["scaled"], n=10)[-1] * 1000, "ms")
    extras.update({"unscaled.ops_per_s": ops_per_s, "unscaled.op_ms.p50": op_p50,
                   f"unscaled.{ms_per}": ms_per_item,
                   "machine_speed": (statistics.fmean(
                       speed.NOMINAL_CHUNK_S / c for c in gauge.chunks), "ratio")})
    return runner, metrics, extras


def run_traced(args):
    import_engine()
    runner, _ = set_up(args)
    tracer = tracing.Tracer()
    metrics = measure_traced(runner, args.seconds, tracer)
    path = ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    count = tracer.write(path)
    print(f"perfbench: {count} spans written to {path}", file=sys.stderr)
    return runner, metrics, {}


def report(args, runner: Runner, metrics: dict, extras: dict) -> int:
    extras["fail_ratio"] = (runner.failed / runner.attempted, "ratio")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {runner.attempted} operations, {runner.failed} failed",
          file=sys.stderr)
    for name, (value, unit) in list(metrics.items()) + list(extras.items()):
        print(f"  {name:<44} {value:>14.6g} {unit}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
