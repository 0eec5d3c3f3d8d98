import dataclasses
import gc
import itertools
import json
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbpoplus import (Bdd, BddError, EngineError, LabeledGraph, LabelLattice, TruthTable,
                      bdd_lattice, build_decision_tree, elim_vacuous_rule, evaluate,
                      find_matches, is_isomorphic, is_reduced, leaf_rule,
                      merge_iso_rule, normalize, oracle_reduce, pbpo_step,
                      reduce_bdd, validate_bdd, validate_rule)
from pbpoplus import bdd, lattice
from pbpoplus.bdd import reduction_rules
from pbpoplus.formats import trace_record

from genhelpers import count_adherence_searches, random_truth_table, sweep_tables


def test_truth_table_from_bits():
    t = TruthTable.from_bits("0001", ["p", "q"])
    assert t.value({"p": True, "q": True}) is True
    assert t.value({"p": True, "q": False}) is False
    assert len(list(t.assignments())) == 4


def test_truth_table_shape_errors():
    with pytest.raises(BddError):
        TruthTable.from_bits("001", ["p", "q"])
    with pytest.raises(BddError, match="too-many-variables"):
        TruthTable(tuple(f"v{i}" for i in range(17)), tuple([False] * 2 ** 17))


def test_build_decision_tree_shape(pq_tree):
    g = pq_tree.graph
    assert len(g.nodes) == 7
    assert len(g.edges) == 6
    assert g.node_labels["d"] == "p"
    assert g.node_labels["d0"] == "q" and g.node_labels["d1"] == "q"
    leaves = sorted(n for n in g.nodes if not g.out_edges[n])
    assert [g.node_labels[n] for n in leaves] == ["0", "0", "0", "1"]
    assert validate_bdd(g, pq_tree.root).ok


def test_build_decision_tree_degenerate():
    zero_vars = TruthTable.from_bits("0", [])
    tree = build_decision_tree(zero_vars)
    assert len(tree.graph.nodes) == 1
    single = build_decision_tree(TruthTable.from_bits("01", ["p"]))
    assert len(single.graph.nodes) == 3


def test_a_table_without_variables_reduces_in_no_steps():
    for bits in ("0", "1"):
        tree = build_decision_tree(TruthTable.from_bits(bits, []))
        reduced, result = reduce_bdd(tree)
        assert result.steps == 0 and result.reached_fixpoint
        assert reduced.graph == tree.graph


def test_evaluate_conjunction(pq_tree, pq_table):
    for a in pq_table.assignments():
        assert evaluate(pq_tree, a) == (a["p"] and a["q"])


def test_evaluate_matches_table_on_random_inputs():
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        variables = [f"v{i}" for i in range(n)]
        t = random_truth_table(rng, variables)
        tree = build_decision_tree(t)
        for a in t.assignments():
            assert evaluate(tree, a) == t.value(a)


def test_evaluate_requires_total_assignment(pq_tree):
    with pytest.raises(BddError):
        evaluate(pq_tree, {"p": True})


def test_validate_bdd_flags_defects(lat2):
    # two roots
    g = LabeledGraph.build(lat2, {"a": "0", "b": "1"})
    assert "single-root" in validate_bdd(g).codes()
    # cycle
    g = LabeledGraph.build(lat2, {"a": "x1", "b": "x2"},
                           {"e1": ("a", "b", "0"), "e2": ("b", "a", "1")})
    assert "cycle" in validate_bdd(g).codes()
    # out-degree discipline
    g = LabeledGraph.build(lat2, {"a": "x1", "b": "0"},
                           {"e1": ("a", "b", "0"), "e2": ("a", "b", "0")})
    assert "out-degree" in validate_bdd(g).codes()
    # leaf label discipline
    g = LabeledGraph.build(lat2, {"a": "x1"})
    assert "leaf-label" in validate_bdd(g).codes()
    # repeated variable on a path
    g = LabeledGraph.build(
        lat2, {"a": "x1", "b": "x1", "l0": "0", "l1": "1", "l2": "0"},
        {"e0": ("a", "b", "0"), "e1": ("a", "l2", "1"),
         "f0": ("b", "l0", "0"), "f1": ("b", "l1", "1")})
    assert "repeated-variable" in validate_bdd(g).codes()


def ladder(n: int) -> Bdd:
    """``n`` decision nodes in a chain, each sending both edges to the
    next: 2^n paths through n + 1 nodes."""
    variables = tuple(f"v{i}" for i in range(n))
    nodes = {f"a{i}": v for i, v in enumerate(variables)}
    nodes[f"a{n}"] = "1"
    edges = {f"a{i}e{b}": (f"a{i}", f"a{i + 1}", b) for i in range(n) for b in "01"}
    return Bdd(LabeledGraph.build(bdd_lattice(variables), nodes, edges), "a0", variables)


def parity(n: int) -> Bdd:
    """The reduced BDD of the parity of ``n`` variables: an even and an odd
    node per level below the root, 2^n paths."""
    variables = tuple(f"v{i}" for i in range(n))
    nodes = {"r": variables[0], "b0": "0", "b1": "1"}
    edges = {}

    def child(level: int, odd: int) -> str:
        return f"b{odd}" if level == n else f"p{level}_{odd}"

    for level in range(1, n):
        for odd in (0, 1):
            node = child(level, odd)
            nodes[node] = variables[level]
            for b in (0, 1):
                edges[f"{node}e{b}"] = (node, child(level + 1, odd ^ b), str(b))
    for b in (0, 1):
        edges[f"re{b}"] = ("r", child(1, b), str(b))
    return Bdd(LabeledGraph.build(bdd_lattice(variables), nodes, edges), "r", variables)


def test_validators_take_time_linear_in_the_graph_not_its_paths():
    """Both graphs have 2^64 root-to-leaf paths."""
    for b in (ladder(64), parity(64)):
        assert validate_bdd(b.graph, b.root).ok
    assert is_reduced(ladder(64)).vacuous_node == "a0"
    assert is_reduced(parity(64)).reduced
    small = parity(6)
    for bits in itertools.product((False, True), repeat=6):
        assert evaluate(small, dict(zip(small.variables, bits))) is (sum(bits) % 2 == 1)


def test_validators_find_defects_deep_in_a_large_bdd():
    b = parity(64)
    g = b.graph
    repeated = LabeledGraph.build(
        g.lattice, {**g.node_labels, "p63_1": "v0"},
        {e: (g.src[e], g.tgt[e], g.edge_labels[e]) for e in g.edges})
    assert validate_bdd(repeated).codes() == {"repeated-variable"}
    twin = LabeledGraph.build(
        g.lattice, {**g.node_labels, "q": "v63"},
        {**{e: (g.src[e], g.tgt[e], g.edge_labels[e]) for e in g.edges},
         "p62_0e0": ("p62_0", "q", "0"), "qe0": ("q", "b0", "0"), "qe1": ("q", "b1", "1")})
    assert is_reduced(Bdd(twin, "r", b.variables)).isomorphic_pair == ("p63_0", "q")


def test_is_reduced_rejects_a_cycle(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1", "b": "x2", "l": "1"},
                           {"a0": ("a", "b", "0"), "a1": ("a", "l", "1"),
                            "b0": ("b", "a", "0"), "b1": ("b", "l", "1")})
    with pytest.raises(BddError, match="invalid-bdd.*cycle"):
        is_reduced(Bdd(graph=g, root="a", variables=("x1", "x2")))


def test_validate_bdd_reports_a_dangling_edge_instead_of_raising(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1", "l": "0"},
                           {"e0": ("a", "l", "0"), "e1": ("a", "gone", "1")})
    assert validate_bdd(g).codes() == {"dangling-endpoint"}


def test_is_reduced_witnesses(pq_tree, lat2):
    check = is_reduced(pq_tree)
    assert not check.reduced
    assert check.isomorphic_pair is not None
    # vacuous witness
    g = LabeledGraph.build(lat2, {"a": "x1", "b": "0"},
                           {"e0": ("a", "b", "0"), "e1": ("a", "b", "1")})
    check = is_reduced(Bdd(graph=g, root="a", variables=("x1",)))
    assert not check.reduced
    assert check.vacuous_node == "a"


# ----------------------------------------------------------- the rules


def test_leaf_rule_shape():
    lat = bdd_lattice(["p", "q"])
    rule = leaf_rule("0", lat)
    assert len(rule.L.nodes) == 2 and rule.L.edges == frozenset()
    assert len(rule.Lp.nodes) == 3 and len(rule.Lp.edges) == 3
    assert len(rule.R.nodes) == 1
    assert validate_rule(rule).ok


def test_leaf_rule_redirects_parents(lat2):
    rule = leaf_rule("0", lat2)
    host = LabeledGraph.build(
        lat2, {"p": "x1", "l1": "0", "l2": "0"},
        {"e0": ("p", "l1", "0"), "e1": ("p", "l2", "1")})
    matches = find_matches(rule, host)
    assert len(matches) == 2  # both orientations of the leaf pair
    result, trace = pbpo_step(rule, matches[0])
    assert len(result.nodes) == 2
    merged = [n for n in result.nodes if result.node_labels[n] == "0"]
    assert len(merged) == 1
    parents_edges = [e for e in result.edges if result.tgt[e] == merged[0]]
    assert len(parents_edges) == 2


def test_leaf_rule_needs_two_distinct_leaves(lat2):
    rule = leaf_rule("0", lat2)
    host = LabeledGraph.build(lat2, {"l": "0"})
    assert find_matches(rule, host) == []


def test_leaf_rule_match_count_on_pq_tree(pq_tree):
    # three 0-leaves give six ordered pairs; golden value for the enumerator
    rule = leaf_rule("0", pq_tree.graph.lattice)
    assert len(find_matches(rule, pq_tree.graph)) == 6


def test_merge_iso_rule_shape():
    lat = bdd_lattice(["p", "q"])
    rule = merge_iso_rule("q", lat)
    assert len(rule.L.nodes) == 4 and len(rule.L.edges) == 4
    assert len(rule.Lp.nodes) == 5 and len(rule.Lp.edges) == 13
    assert rule.K.edges == frozenset()
    assert len(rule.R.nodes) == 3 and len(rule.R.edges) == 2
    assert validate_rule(rule).ok
    with pytest.raises(BddError, match="unknown-variable"):
        merge_iso_rule("zz", lat)


def test_merge_iso_step_drops_indegrees(lat2):
    rule = merge_iso_rule("x2", lat2)
    host = LabeledGraph.build(
        lat2,
        {"r": "x1", "q1": "x2", "q2": "x2", "z": "0", "u": "1"},
        {"r0": ("r", "q1", "0"), "r1": ("r", "q2", "1"),
         "a0": ("q1", "z", "0"), "a1": ("q1", "u", "1"),
         "b0": ("q2", "z", "0"), "b1": ("q2", "u", "1")})
    matches = find_matches(rule, host)
    assert len(matches) == 2
    result, trace = pbpo_step(rule, matches[0])
    assert len(result.nodes) == 4
    merged = [n for n in result.nodes if result.node_labels[n] == "x2"]
    assert len(merged) == 1
    z_img = [n for n in result.nodes if result.node_labels[n] == "0"][0]
    u_img = [n for n in result.nodes if result.node_labels[n] == "1"][0]
    assert len([e for e in result.edges if result.tgt[e] == z_img]) == 1
    assert len([e for e in result.edges if result.tgt[e] == u_img]) == 1
    assert validate_bdd(result).ok


def test_merge_iso_no_match_when_children_differ(lat2):
    rule = merge_iso_rule("x2", lat2)
    host = LabeledGraph.build(
        lat2,
        {"q1": "x2", "q2": "x2", "z": "0", "u": "1", "w": "0"},
        {"a0": ("q1", "z", "0"), "a1": ("q1", "u", "1"),
         "b0": ("q2", "w", "0"), "b1": ("q2", "u", "1")})
    assert find_matches(rule, host) == []


def test_merge_iso_no_match_on_vacuous_node(lat2):
    rule = merge_iso_rule("x2", lat2)
    host = LabeledGraph.build(
        lat2, {"q1": "x2", "z": "0"},
        {"a0": ("q1", "z", "0"), "a1": ("q1", "z", "1")})
    assert find_matches(rule, host) == []


def test_elim_vacuous_rule_shape(lat2):
    rule = elim_vacuous_rule(lat2)
    assert len(rule.L.nodes) == 2 and len(rule.L.edges) == 2
    assert len(rule.Lp.nodes) == 3 and len(rule.Lp.edges) == 6
    assert rule.K.edges == frozenset()
    assert list(rule.R.node_labels.values()) == ["bot"]
    assert validate_rule(rule).ok


def test_elim_vacuous_at_root(lat2):
    rule = elim_vacuous_rule(lat2)
    host = LabeledGraph.build(
        lat2, {"x": "x1", "y": "1"},
        {"e0": ("x", "y", "0"), "e1": ("x", "y", "1")})
    matches = find_matches(rule, host)
    assert len(matches) == 1
    result, _ = pbpo_step(rule, matches[0])
    assert len(result.nodes) == 1
    assert list(result.node_labels.values()) == ["1"]


def test_elim_vacuous_redirects_incoming(lat2):
    rule = elim_vacuous_rule(lat2)
    host = LabeledGraph.build(
        lat2,
        {"r": "x1", "x": "x2", "y": "1", "l": "0"},
        {"r0": ("r", "l", "0"), "r1": ("r", "x", "1"),
         "e0": ("x", "y", "0"), "e1": ("x", "y", "1")})
    matches = find_matches(rule, host)
    assert len(matches) == 1
    result, _ = pbpo_step(rule, matches[0])
    assert len(result.nodes) == 3
    one_leaf = [n for n in result.nodes if result.node_labels[n] == "1"][0]
    incoming = [e for e in result.edges if result.tgt[e] == one_leaf]
    assert len(incoming) == 1  # the root edge formerly targeting x
    assert result.edge_labels[incoming[0]] == "1"
    assert validate_bdd(result).ok


def test_elim_vacuous_no_match_on_distinct_targets(lat2):
    rule = elim_vacuous_rule(lat2)
    host = LabeledGraph.build(
        lat2, {"x": "x1", "y": "1", "z": "0"},
        {"e0": ("x", "z", "0"), "e1": ("x", "y", "1")})
    assert find_matches(rule, host) == []


# ----------------------------------------------------------- reduction


def test_reduce_pq_tree(pq_tree, pq_table):
    reduced, result = reduce_bdd(pq_tree)
    assert result.steps == 3
    assert len(reduced.graph.nodes) == 4
    assert result.reached_fixpoint
    assert is_reduced(reduced).reduced
    oracle = oracle_reduce(pq_table)
    assert is_isomorphic(reduced.graph, oracle.graph) is not None
    for a in pq_table.assignments():
        assert evaluate(reduced, a) == pq_table.value(a)


def test_reduce_already_reduced(pq_table):
    reduced, _ = reduce_bdd(build_decision_tree(pq_table))
    again, result = reduce_bdd(reduced)
    assert result.steps == 0


def test_reduce_constant_zero_two_vars():
    t = TruthTable.from_bits("0000", ["p", "q"])
    tree = build_decision_tree(t)
    reduced, result = reduce_bdd(tree)
    assert result.steps == 6
    assert len(reduced.graph.nodes) == 1
    assert list(reduced.graph.node_labels.values()) == ["0"]


def test_reduce_rejects_invalid_input(lat2):
    g = LabeledGraph.build(lat2, {"a": "0", "b": "1"})
    with pytest.raises(BddError, match="invalid-bdd"):
        reduce_bdd(Bdd(graph=g, root="a", variables=("x1", "x2")))


def test_reduce_rejects_a_negative_budget(pq_tree):
    with pytest.raises(EngineError, match="invalid-budget"):
        reduce_bdd(pq_tree, max_steps=-1)


def test_reduction_ids_do_not_grow_with_steps():
    """After a full six-variable reduction no id is longer than the tree's
    longest plus the longest stamp a step can pick: ids no longer gain a
    suffix per step."""
    rng = random.Random(61)
    tree = build_decision_tree(random_truth_table(rng, [f"x{i}" for i in range(6)]))
    reduced, result = reduce_bdd(tree, keep_traces=False)
    tree_ids = [*tree.graph.nodes, *tree.graph.edges]
    rule_ids = [x for rule in reduction_rules(tree.variables, tree.graph.lattice)
                for g in (rule.Kp, rule.R) for x in (*g.nodes, *g.edges)]
    stamp_bound = len(f"{result.steps}:{max(rule_ids, key=len)}'{3 * len(tree_ids)}")
    assert result.steps > 60
    longest = max(map(len, [*reduced.graph.nodes, *reduced.graph.edges]))
    assert longest <= max(map(len, tree_ids)) + stamp_bound


def test_rule_count():
    lat = bdd_lattice(["p", "q", "r"])
    assert len(reduction_rules(("p", "q", "r"), lat)) == 6


def rules_from_scratch(variables, lat):
    """The reduction rules, each completed by ``complete_rule`` afresh."""
    return [leaf_rule("0", lat), leaf_rule("1", lat),
            *(merge_iso_rule(x, lat) for x in variables), elim_vacuous_rule(lat)]


def test_reduction_rules_are_new_objects_over_one_built_rule_set():
    for n in range(1, 5):
        variables = tuple(f"s{i}" for i in range(n))
        lat = bdd_lattice(variables)
        first, again = reduction_rules(variables, lat), reduction_rules(list(variables))
        assert first == again == rules_from_scratch(variables, lat)
        assert len(first) == n + 3
        assert not {id(rule) for rule in first} & {id(rule) for rule in again}
        assert all(rule._report.ok for rule in again)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
@settings(max_examples=max(settings.default.max_examples // 40, 5), deadline=None)
def test_shared_rule_sets_step_as_rules_built_from_scratch(seed, n):
    """A reduction by the shared rule set writes, step for step, the same
    trace record, byte for byte as canonical JSON, as one by rules
    completed afresh."""
    tree = build_decision_tree(random_truth_table(random.Random(seed),
                                                  [f"v{i}" for i in range(n)]))
    reduction_rules(tree.variables, tree.graph.lattice)
    _, shared = reduce_bdd(tree)
    scratch = normalize(tree.graph, rules_from_scratch(tree.variables, tree.graph.lattice))
    assert shared.steps == scratch.steps
    assert ([json.dumps(trace_record(t), sort_keys=True) for t in shared.traces]
            == [json.dumps(trace_record(t), sort_keys=True) for t in scratch.traces])


def test_rule_sets_and_lattices_kept_stay_within_the_bound():
    for i in range(lattice._MEMO_SIZE + 3):
        reduction_rules((f"w{i}", "w"))
    assert len(bdd._RULE_PARTS) == len(lattice._BDD_LATTICES) == lattice._MEMO_SIZE


def test_a_tree_over_an_equal_but_distinct_lattice_reduces_to_the_oracle():
    table = random_truth_table(random.Random(3), ["v0", "v1", "v2"])
    tree = build_decision_tree(table)
    lat = tree.graph.lattice
    twin = LabelLattice.from_order(lat.elements, lat.order, lat.top, lat.bottom)
    assert twin == lat and twin is not lat
    reduction_rules(tree.variables, lat)
    twin_tree = Bdd(dataclasses.replace(tree.graph, lattice=twin), tree.root, tree.variables)
    reduced, result = reduce_bdd(twin_tree)
    assert all(t.rule.L.lattice is twin for t in result.traces)
    assert is_isomorphic(reduced.graph, oracle_reduce(table).graph) is not None


def test_oracle_counts(pq_table):
    assert len(oracle_reduce(pq_table).graph.nodes) == 4
    xor = TruthTable.from_bits("0110", ["p", "q"])
    assert len(oracle_reduce(xor).graph.nodes) == 5
    const = TruthTable.from_bits("1111", ["p", "q"])
    assert len(oracle_reduce(const).graph.nodes) == 1


def test_oracle_is_reduced_and_correct():
    rng = random.Random(31)
    for n in (1, 2, 3):
        variables = [f"v{i}" for i in range(n)]
        t = random_truth_table(rng, variables)
        b = oracle_reduce(t)
        assert validate_bdd(b.graph, b.root).ok
        assert is_reduced(b).reduced
        for a in t.assignments():
            assert evaluate(b, a) == t.value(a)


def test_reduction_preserves_semantics_stepwise(pq_table):
    tree = build_decision_tree(pq_table)
    reduced, result = reduce_bdd(tree)
    for trace in result.traces:
        root = [n for n in trace.g_out.sorted_nodes
                if not trace.g_out.in_edges.get(n)]
        assert len(root) == 1
        step_bdd = Bdd(graph=trace.g_out, root=root[0], variables=pq_table.variables)
        assert validate_bdd(step_bdd.graph, step_bdd.root).ok
        for a in pq_table.assignments():
            assert evaluate(step_bdd, a) == pq_table.value(a)
        assert len(trace.g_out.nodes) == len(trace.g_in.nodes) - 1


@given(st.integers(0, 2 ** 32 - 1),
       # Five variables only on the deep profile: a run searches every rule
       # on every step.
       st.integers(0, 5 if settings.default.max_examples >= 2000 else 4))
@settings(max_examples=settings.default.max_examples // 4, deadline=None)
def test_bdd_normal_form_does_not_depend_on_the_match_chosen(seed, n):
    """Each step fires a random rule that has a match, at a random one of
    its matches, and removes one node; every such run ends at the
    canonical reduced diagram, |tree| - |reduced| steps on (Bryant 1986)."""
    rng = random.Random(seed)
    table = random_truth_table(rng, [f"v{i}" for i in range(n)])
    tree = build_decision_tree(table)
    rules = reduction_rules(tree.variables, tree.graph.lattice)
    g, steps = tree.graph, 0
    while True:
        options = [(rule, matches) for rule in rules if (matches := find_matches(rule, g))]
        if not options:
            break
        rule, matches = rng.choice(options)
        result, _ = pbpo_step(rule, rng.choice(matches), step=steps)
        assert len(result.nodes) == len(g.nodes) - 1
        g, steps = result, steps + 1
    oracle = oracle_reduce(table).graph
    assert is_isomorphic(g, oracle) is not None
    assert steps == len(tree.graph.nodes) - len(oracle.nodes)


def test_every_adherence_of_the_sweep_is_built_not_searched(monkeypatch):
    """Every BDD rule's context part is a sink, and on every step of the
    criterion-7 corpus the adherence at each occurrence is built in
    closed form: ``_adherences_for`` never calls the search."""
    searched = count_adherence_searches(monkeypatch)
    steps = 0
    for table in sweep_tables():
        tree = build_decision_tree(table)
        assert all(rule._sink is not None
                   for rule in reduction_rules(tree.variables, tree.graph.lattice))
        steps += reduce_bdd(tree, keep_traces=False)[1].steps
    assert steps > 500 and searched == []


def test_rules_die_after_a_reduction(monkeypatch):
    """What a reduction keeps about a rule lives on the rule: once the
    results are dropped, no rule passed to ``normalize`` or ``reduce_bdd``
    is kept alive by a table of the engine."""
    refs = []
    run = bdd.normalize

    def recorded(g, rules, **kwargs):
        refs.extend(weakref.ref(rule) for rule in rules)
        return run(g, rules, **kwargs)

    monkeypatch.setattr(bdd, "normalize", recorded)
    tree = build_decision_tree(random_truth_table(random.Random(5), ["a", "b", "c", "d"]))
    reduce_bdd(tree)
    reduce_bdd(tree, keep_traces=False)
    rules = reduction_rules(tree.variables, tree.graph.lattice)
    refs.extend(weakref.ref(rule) for rule in rules)
    normalize(tree.graph, rules)
    del rules
    gc.collect()
    assert len(refs) == 3 * 7 and all(ref() is None for ref in refs)
