"""Self-tests of the benchmark: seeded inputs, the correctness gate, the
tracer's wrappers, and the result line's contract."""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pbpoplus as api
import run
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def graph_data(g):
    return (g.node_labels, g.src, g.tgt, g.edge_labels)


def test_seed_regenerates_identical_inputs():
    sweep, large, match = workloads.Sweep(), workloads.Large(), workloads.MatchAll()
    assert sweep.setup(7) == sweep.setup(7)
    assert sweep.setup(7) != sweep.setup(8)
    first, again = large.setup(7), large.setup(7)
    assert [t for t, _ in first] == [t for t, _ in again]
    assert [graph_data(tree.graph) for _, tree in first] == \
        [graph_data(tree.graph) for _, tree in again]
    first, again = match.setup(7), match.setup(7)
    assert [(rule.name, graph_data(host)) for rule, host in first] == \
        [(rule.name, graph_data(host)) for rule, host in again]


def test_structural_counts_agree_with_the_engine():
    table = workloads.balanced_table(random.Random(3), 3)
    tree = api.build_decision_tree(table)
    _, result = api.reduce_bdd(tree)
    rules = api.reduction_rules(tree.variables, tree.graph.lattice)
    for host in [tree.graph] + [t.g_out for t in result.traces]:
        for rule in rules:
            assert workloads.expected_match_count(rule.name, host) == \
                len(api.find_matches(rule, host)), rule.name


class UnreducedSweep(workloads.Sweep):
    """Hands back the decision tree itself as the reduced diagram."""

    def call(self, table):
        _, result = super().call(table)
        return api.build_decision_tree(table), result


class MissingMatch(workloads.MatchAll):
    def call(self, query):
        return super().call(query)[:-1]


class Raising(workloads.Sweep):
    def call(self, table):
        raise api.EngineError("deliberate")


def run_ops(workload, ops, count):
    runner = run.Runner(workload, ops)
    outputs = [runner.run_once(i)[2] for i in range(count)]
    return runner, outputs


@pytest.mark.parametrize("workload", [UnreducedSweep(), Raising()])
def test_wrong_or_failed_reductions_are_counted(workload):
    tables = [api.TruthTable.from_bits("0110", ("p", "q")),
              api.TruthTable.from_bits("00010111", ("a", "b", "c"))]
    runner, outputs = run_ops(workload, tables, 2)
    assert (runner.attempted, runner.failed) == (2, 2)
    assert outputs == [None, None]


def test_wrong_match_count_is_counted():
    tree = api.build_decision_tree(api.TruthTable.from_bits("00010111", ("a", "b", "c")))
    rules = api.reduction_rules(tree.variables, tree.graph.lattice)
    ops = [(rules[0], tree.graph)]   # LEAF_0 on a tree with four 0-leaves
    runner, _ = run_ops(workloads.MatchAll(), ops, 2)
    assert (runner.attempted, runner.failed) == (2, 0)
    runner, _ = run_ops(MissingMatch(), ops, 1)
    assert (runner.attempted, runner.failed) == (1, 1)


def binding_sites():
    sites = {}
    for name, module in list(sys.modules.items()):
        if name == "pbpoplus" or name.startswith("pbpoplus."):
            for key, value in vars(module).items():
                sites[(name, key)] = value
    for cls in (api.LabelLattice, api.LabeledGraph):
        for key, value in vars(cls).items():
            sites[(cls.__name__, key)] = value
    return sites


def test_wrappers_cover_every_site_and_are_removed():
    before = binding_sites()
    tracer = tracing.Tracer()
    table = api.TruthTable.from_bits("0001", ("p", "q"))
    with tracer.operation(1):
        originals = {id(v) for _, _, v in tracer._sites}
        assert api.rewriting.pullback is not before[("pbpoplus.rewriting", "pullback")]
        assert api.LabelLattice.join is not before[("LabelLattice", "join")]
        assert not any(id(v) in originals for v in binding_sites().values())
        api.reduce_bdd(api.build_decision_tree(table))
    after = binding_sites()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    assert tracer.aggregate("bdd.reduce_bdd").calls == 1
    assert tracer.aggregate("rewriting.pbpo_step").calls == 3
    assert tracer.aggregate("matching.iter_matches").yields == 3
    assert tracer.aggregate("lattice.meet").calls > 0
    roots = (tracer.aggregate("bdd.build_decision_tree").total_s
             + tracer.aggregate("bdd.reduce_bdd").total_s)
    self_total = sum(a.self_s for a in tracer.aggregates)
    assert self_total == pytest.approx(roots, rel=1e-9)


def test_speed_gauge_samples_inside_and_around_a_call():
    with speed.SpeedGauge() as gauge:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            speed.reference_job()
        end = time.perf_counter()
        time.sleep(speed.WINDOW_S)
    inside = [t for t in gauge.starts if start <= t <= end]
    assert len(inside) >= 3
    assert 0 < gauge.raw(start, end) < end - start
    assert gauge.factor(start, end) > 0


def declared_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_the_declared_metrics(trace, kind, capsys):
    argv = ["--workload", "bdd-sweep", "--seed", "3", "--seconds", "0.3",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared_metrics(kind)
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] == pytest.approx(1.0, abs=0.05)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bdd-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
