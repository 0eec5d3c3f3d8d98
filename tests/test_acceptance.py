"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Random corpora are seeded, so runs are reproducible.
"""

import pathlib
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from pbpoplus import (Cospan, GraphMorphism, LabeledGraph, Match, Span,
                      bdd_lattice, build_decision_tree,
                      check_strong_match, compose, enumerate_homomorphisms,
                      evaluate, find_matches, identity, is_isomorphic,
                      is_pullback_square, is_pushout_square, is_reduced,
                      oracle_reduce, pbpo_step, pullback, pullback_mediators,
                      pushout, pushout_mediators, reduce_bdd, unit_lattice,
                      validate_bdd, verify_trace)
from pbpoplus.formats import (parse_graph, parse_lattice, parse_morphism,
                              parse_rule, parse_workspace, serialize)
from pbpoplus.lattice import FALSE, TRUE

from genhelpers import (corpus_lattices, permute_ids, pullback_candidates,
                        pushout_candidates, random_cospan, random_graph,
                        random_host_with_match, random_morphism_into,
                        random_rule, random_span)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{name}]: FAIL")
        raise
    print(f"criterion {num:02d} [{name}]: PASS")


# ---------------------------------------------------------- shared corpora


@pytest.fixture(scope="module")
def limit_corpus():
    rng = random.Random(101)
    spans = []
    cospans = []
    lattices = corpus_lattices()
    while len(spans) < 50:
        spans.append(random_span(rng, lattices[len(spans) % len(lattices)]))
    while len(cospans) < 50:
        cospans.append(random_cospan(rng, lattices[len(cospans) % len(lattices)]))
    return spans, cospans


# -------------------------------------------------------------- criteria


def test_criterion_01_universal_property_oracle(limit_corpus):
    spans, cospans = limit_corpus
    with criterion(1, "universal-property-oracle"):
        start = time.perf_counter()
        rng = random.Random(7)
        checked = 0
        for span in spans:
            po = pushout(span)
            for cospan_cand, tagged_po in pushout_candidates(rng, span, po):
                if len(cospan_cand.left.cod.nodes) > 6:
                    continue
                mediators = pushout_mediators(po, cospan_cand, limit=3)
                assert len(mediators) == 1, "pushout mediator not unique"
                assert is_pushout_square(span, cospan_cand) == tagged_po
                checked += 1
        for cospan in cospans:
            pb = pullback(cospan)
            for span_cand, tagged_pb in pullback_candidates(rng, cospan, pb):
                if len(span_cand.left.dom.nodes) > 6:
                    continue
                mediators = pullback_mediators(pb, span_cand, limit=3)
                assert len(mediators) == 1, "pullback mediator not unique"
                assert is_pullback_square(cospan, span_cand) == tagged_pb
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 300, f"oracle exercised only {checked} candidates"
        assert elapsed < 60, f"oracle took {elapsed:.1f}s"


def test_criterion_02_fibered_product_equality(limit_corpus):
    _, cospans = limit_corpus
    with criterion(2, "fibered-product-equality"):
        for cospan in cospans:
            pb = pullback(cospan)
            f, g = cospan.left, cospan.right
            b, c = f.dom, g.dom
            lat = b.lattice
            # independent pair construction, straight from the definition
            nodes = {}
            for x in b.sorted_nodes:
                for y in c.sorted_nodes:
                    if f.node_map[x] == g.node_map[y]:
                        nodes[f"{x}|{y}"] = lat.meet([b.node_labels[x],
                                                      c.node_labels[y]])
            edges = {}
            for ex in b.sorted_edges:
                for ey in c.sorted_edges:
                    if f.edge_map[ex] == g.edge_map[ey]:
                        edges[f"{ex}|{ey}"] = (
                            f"{b.src[ex]}|{c.src[ey]}",
                            f"{b.tgt[ex]}|{c.tgt[ey]}",
                            lat.meet([b.edge_labels[ex], c.edge_labels[ey]]))
            expected = LabeledGraph.build(lat, nodes, edges)
            assert pb.object == expected, "pullback differs from pair construction"


def test_criterion_03_single_node_relabel_steps(replace_rule, keep_rule, lat2):
    with criterion(3, "single-node-relabel-exact"):
        host_var = LabeledGraph.build(lat2, {"g": "x2"})
        (match1,) = find_matches(replace_rule, host_var)
        host_zero = LabeledGraph.build(lat2, {"g": "0"})
        (match2,) = find_matches(keep_rule, host_zero)

        out1, trace1 = pbpo_step(replace_rule, match1)  # warm-up
        assert trace1.g_mid.node_labels == {"g": "bot"}
        assert out1.node_labels == {"g": "x1"}
        out2, trace2 = pbpo_step(keep_rule, match2)
        assert trace2.g_mid.node_labels == {"g": "0"}
        assert out2.node_labels == {"g": "0"}

        best1 = min(_timed(pbpo_step, replace_rule, match1) for _ in range(5))
        best2 = min(_timed(pbpo_step, keep_rule, match2) for _ in range(5))
        assert best1 < 0.001, f"relabel step took {best1 * 1000:.3f} ms"
        assert best2 < 0.001, f"keep step took {best2 * 1000:.3f} ms"


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_criterion_04_strong_match_soundness():
    with criterion(4, "strong-match-soundness"):
        rng = random.Random(404)
        lattices = corpus_lattices()
        agreements = 0
        positives = 0
        for i in range(200):
            lat = lattices[i % len(lattices)]
            kind = i % 3
            if kind == 0:
                rule = random_rule(rng, lat)
                host, planted = random_host_with_match(rng, rule)
                t_l, alpha = rule.tL, planted.alpha
            elif kind == 1:
                rule = random_rule(rng, lat)
                host, planted = random_host_with_match(rng, rule)
                t_l = rule.tL
                alpha = _corrupt_adherence(rng, planted.alpha, t_l)
            else:
                l_prime = random_graph(rng, lat, max_nodes=3, max_edges=3,
                                       min_nodes=1, prefix="w")
                t_l = _random_injective_typing(rng, l_prime)
                alpha = random_morphism_into(rng, l_prime, prefix="h")
            verdict = check_strong_match(t_l, alpha)
            expected = _strong_match_by_square_search(t_l, alpha)
            assert (verdict is not None) == expected, f"disagreement at {i}"
            if verdict is not None:
                positives += 1
                assert verdict.m.is_injective()
                assert is_pullback_square(
                    Cospan(alpha, t_l), Span(verdict.m, identity(t_l.dom)))
            agreements += 1
        assert agreements == 200
        assert positives >= 40, f"only {positives} positive instances"


def _corrupt_adherence(rng, alpha, t_l):
    """Remap one context node onto the typed pattern when labels allow."""
    pattern_nodes = sorted(t_l.node_map.values())
    lat = alpha.dom.lattice
    new_map = dict(alpha.node_map)
    candidates = [n for n in alpha.dom.sorted_nodes
                  if new_map[n] not in pattern_nodes]
    rng.shuffle(candidates)
    for n in candidates:
        targets = [p for p in pattern_nodes
                   if lat.leq(alpha.dom.node_labels[n],
                              t_l.cod.node_labels[p])]
        # only safe if n has no incident edges (edge images would dangle)
        if targets and not alpha.dom.incident_edges[n]:
            new_map[n] = rng.choice(targets)
            return GraphMorphism(alpha.dom, alpha.cod, new_map,
                                 dict(alpha.edge_map))
    return alpha


def _random_injective_typing(rng, l_prime):
    chosen = [n for n in l_prime.sorted_nodes if rng.random() < 0.6]
    if not chosen:
        chosen = [l_prime.sorted_nodes[0]]
    lat = l_prime.lattice
    nodes = {f"p_{n}": rng.choice([x for x in lat.sorted_elements()
                                   if lat.leq(x, l_prime.node_labels[n])])
             for n in chosen}
    pattern = LabeledGraph.build(lat, nodes, {})
    return GraphMorphism(pattern, l_prime, {f"p_{n}": n for n in chosen}, {})


def _strong_match_by_square_search(t_l, alpha):
    """Independent verifier: some candidate match closes the typing square
    as a pullback."""
    pattern = t_l.dom
    host = alpha.dom
    for m in enumerate_homomorphisms(pattern, host):
        composed = compose(m, alpha)
        if composed.node_map != t_l.node_map or composed.edge_map != t_l.edge_map:
            continue
        if is_pullback_square(Cospan(alpha, t_l), Span(m, identity(pattern))):
            return True
    return False


def test_criterion_05_step_determinism():
    with criterion(5, "step-determinism"):
        rng = random.Random(505)
        lattices = corpus_lattices()
        for i in range(50):
            lat = lattices[i % len(lattices)]
            rule = random_rule(rng, lat)
            host, match = random_host_with_match(rng, rule)
            out1, trace = pbpo_step(rule, match)
            # explicit square verdicts, beyond the in-step checks
            assert is_pullback_square(Cospan(trace.alpha, rule.tL),
                                      Span(trace.m, identity(rule.L)))
            assert is_pullback_square(Cospan(trace.alpha, rule.lp),
                                      Span(trace.g_l, trace.u_prime))
            assert is_pushout_square(Span(trace.u, rule.r),
                                     Cospan(trace.g_r, trace.w))
            u_then = compose(trace.u, trace.u_prime)
            assert u_then.node_map == rule.tK.node_map
            assert u_then.edge_map == rule.tK.edge_map
            assert verify_trace(trace).ok

            perm = permute_ids(rng, host)
            inv = GraphMorphism(perm.cod, host,
                                {v: k for k, v in perm.node_map.items()},
                                {v: k for k, v in perm.edge_map.items()})
            match2 = Match(m=compose(match.m, perm),
                           alpha=compose(inv, match.alpha),
                           typing=match.typing)
            out2, _ = pbpo_step(rule, match2)
            assert is_isomorphic(out1, out2) is not None, f"instance {i}"


def test_criterion_06_bdd_flagship(pq_table):
    with criterion(6, "bdd-flagship"):
        start = time.perf_counter()
        tree = build_decision_tree(pq_table)
        assert len(tree.graph.nodes) == 7
        reduced, result = reduce_bdd(tree)
        assert result.steps == 3
        assert len(reduced.graph.nodes) == 4
        assert is_isomorphic(reduced.graph, oracle_reduce(pq_table).graph) is not None
        for a in pq_table.assignments():
            assert evaluate(reduced, a) == (a["p"] and a["q"])
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"flagship took {elapsed:.2f}s"


def test_criterion_07_exhaustive_sweep(bdd_sweep):
    runs, elapsed = bdd_sweep
    with criterion(7, "reduction-sweep"):
        assert len(runs) == 116
        for run in runs:
            assert validate_bdd(run.reduced.graph, run.reduced.root).ok, run.table
            assert is_reduced(run.reduced).reduced, run.table
            for a in run.table.assignments():
                assert evaluate(run.reduced, a) == run.table.value(a), run.table
            assert is_isomorphic(run.reduced.graph, run.oracle.graph) is not None, run.table
            assert run.result.steps == (len(run.tree.graph.nodes)
                                        - len(run.reduced.graph.nodes)), run.table
            assert run.result.reached_fixpoint
        assert elapsed < 30, f"sweep took {elapsed:.1f}s"


def test_criterion_08_bdd_invariance_per_step(bdd_sweep):
    runs, _ = bdd_sweep
    with criterion(8, "per-step-bdd-invariance"):
        steps_checked = 0
        for run in runs:
            for trace in run.result.traces:
                assert validate_bdd(trace.g_out).ok, run.table
                steps_checked += 1
        assert steps_checked >= 500


def test_criterion_09_termination_bound(bdd_sweep):
    runs, _ = bdd_sweep
    with criterion(9, "termination-bound"):
        for run in runs:
            assert run.result.steps <= len(run.tree.graph.nodes)
            sizes = [len(run.tree.graph.nodes)]
            sizes += [len(t.g_out.nodes) for t in run.result.traces]
            for before, after in zip(sizes, sizes[1:]):
                assert after == before - 1


def test_criterion_10_homomorphism_counts(unit):
    with criterion(10, "homomorphism-counts"):
        edge = LabeledGraph.build(unit, {"a": "*", "b": "*"},
                                  {"e": ("a", "b", "*")})
        cycle = LabeledGraph.build(
            unit, {"c0": "*", "c1": "*", "c2": "*"},
            {"e0": ("c0", "c1", "*"), "e1": ("c1", "c2", "*"),
             "e2": ("c2", "c0", "*")})
        assert len(enumerate_homomorphisms(edge, cycle)) == 3

        two_colors = LabeledGraph.build(
            unit, {"a": "*", "b": "*"},
            {"ab": ("a", "b", "*"), "ba": ("b", "a", "*")})
        rng = random.Random(1001)
        for _ in range(100):
            g = random_graph(rng, unit, max_nodes=6, max_edges=7)
            homs = enumerate_homomorphisms(g, two_colors)
            assert bool(homs) == _two_colorable(g)


def _two_colorable(g):
    color = {}
    neighbors = {n: set() for n in g.nodes}
    for e in g.edges:
        if g.src[e] == g.tgt[e]:
            return False
        neighbors[g.src[e]].add(g.tgt[e])
        neighbors[g.tgt[e]].add(g.src[e])
    for start in g.sorted_nodes:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            n = queue.pop()
            for nb in neighbors[n]:
                if nb not in color:
                    color[nb] = 1 - color[n]
                    queue.append(nb)
                elif color[nb] == color[n]:
                    return False
    return True


def test_criterion_11_io_round_trip_and_golden_cli():
    with criterion(11, "io-round-trip-and-cli"):
        for name in ("variable_replace.json", "squares.json"):
            ws = parse_workspace(str(FIXTURES / name))
            for lat in ws.lattices.values():
                assert parse_lattice(serialize(lat)) == lat
            for g in ws.graphs.values():
                assert parse_graph(serialize(g)) == g
            for f in ws.morphisms.values():
                assert parse_morphism(serialize(f)) == f
            for rule in ws.rules.values():
                assert parse_rule(serialize(rule)) == rule
        proc = subprocess.run(
            [sys.executable, "-m", "pbpoplus", "bdd", "reduce",
             "--table", "0001", "--vars", "p,q"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "7 -> 4 nodes in 3 steps\n"
