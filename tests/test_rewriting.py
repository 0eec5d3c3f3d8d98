import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbpoplus import (BddError, EngineError, GraphError, GraphMorphism, InternalMediatorError,
                      LabeledGraph, Match, MorphismError, PbpoRule, RhsSpec, RuleError,
                      StrongMatchError, ToyPbRule, ToyPoRule, TruthTable,
                      bdd_lattice, build_decision_tree, complete_rule, compose,
                      find_matches, identity, is_isomorphic, leaf_rule,
                      normalize, pbpo_step, reduce_bdd,
                      reduction_rules, toypb_step, toypo_step,
                      validate_morphism, validate_rule, verify_match_square,
                      verify_trace)

from pbpoplus import limits, matching, rewriting, stepcheck
from pbpoplus.errors import Report
from pbpoplus.rewriting import _check_step

from genhelpers import (corpus_lattices, random_host_with_match, random_rule,
                        random_sink_rule, random_truth_table, reference_check_step,
                        reference_normalize, reference_premise, reference_step)


# --------------------------------------------------------------- ToyPO


def test_toypo_identity_rule(unit):
    g = LabeledGraph.build(unit, {"a": "*", "b": "*"}, {"e": ("a", "b", "*")})
    rule = ToyPoRule(identity(g))
    result, trace = toypo_step(rule, identity(g))
    assert is_isomorphic(result, g) is not None
    assert validate_morphism(trace.i_g).ok and validate_morphism(trace.i_r).ok


def test_toypo_identify_and_add(unit):
    lhs = LabeledGraph.build(unit, {"a": "*", "b": "*"}, {"ab": ("a", "b", "*")})
    rhs = LabeledGraph.build(unit, {"ab": "*", "c": "*"}, {"loop": ("ab", "ab", "*")})
    rho = GraphMorphism(lhs, rhs, {"a": "ab", "b": "ab"}, {"ab": "loop"})
    rule = ToyPoRule(rho)
    result, _ = toypo_step(rule, identity(lhs))
    assert is_isomorphic(result, rhs) is not None

    host = LabeledGraph.build(unit, {"a": "*", "b": "*", "d": "*"},
                              {"ab": ("a", "b", "*"), "da": ("d", "a", "*")})
    m = GraphMorphism(lhs, host, {"a": "a", "b": "b"}, {"ab": "ab"})
    result2, _ = toypo_step(rule, m)
    expect = LabeledGraph.build(unit, {"m": "*", "c": "*", "d": "*"},
                                {"l": ("m", "m", "*"), "dm": ("d", "m", "*")})
    assert is_isomorphic(result2, expect) is not None


def test_toypo_requires_injective_match(unit):
    lhs = LabeledGraph.build(unit, {"a": "*", "b": "*"})
    one = LabeledGraph.build(unit, {"x": "*"})
    rule = ToyPoRule(identity(lhs))
    squash = GraphMorphism(lhs, one, {"a": "x", "b": "x"}, {})
    with pytest.raises(MorphismError, match="not-injective"):
        toypo_step(rule, squash)


# --------------------------------------------------------------- ToyPB


def test_toypb_identity_rule(unit):
    g = LabeledGraph.build(unit, {"a": "*"}, {"l": ("a", "a", "*")})
    one = LabeledGraph.build(unit, {"t": "*"}, {"tl": ("t", "t", "*")})
    alpha = GraphMorphism(g, one, {"a": "t"}, {"l": "tl"})
    rule = ToyPbRule(identity(one))
    result, trace = toypb_step(rule, alpha)
    assert is_isomorphic(result, g) is not None


def test_toypb_duplicates_edges(unit):
    g = LabeledGraph.build(unit, {"x": "*", "y": "*"},
                           {"e1": ("x", "y", "*"), "e2": ("y", "x", "*")})
    one_loop = LabeledGraph.build(unit, {"t": "*"}, {"l": ("t", "t", "*")})
    two_loops = LabeledGraph.build(unit, {"s": "*"},
                                   {"l1": ("s", "s", "*"), "l2": ("s", "s", "*")})
    alpha = GraphMorphism(g, one_loop, {"x": "t", "y": "t"},
                          {"e1": "l", "e2": "l"})
    rule = ToyPbRule(GraphMorphism(two_loops, one_loop, {"s": "t"},
                                   {"l1": "l", "l2": "l"}))
    result, _ = toypb_step(rule, alpha)
    assert len(result.nodes) == 2
    assert len(result.edges) == 4


def test_toypb_deletes_edges(unit):
    g = LabeledGraph.build(unit, {"x": "*", "y": "*"}, {"e": ("x", "y", "*")})
    one_loop = LabeledGraph.build(unit, {"t": "*"}, {"l": ("t", "t", "*")})
    bare = LabeledGraph.build(unit, {"s": "*"})
    alpha = GraphMorphism(g, one_loop, {"x": "t", "y": "t"}, {"e": "l"})
    rule = ToyPbRule(GraphMorphism(bare, one_loop, {"s": "t"}, {}))
    result, _ = toypb_step(rule, alpha)
    assert len(result.nodes) == 2
    assert result.edges == frozenset()


def test_toypb_typing_mismatch(unit):
    g = LabeledGraph.build(unit, {"a": "*"})
    other = LabeledGraph.build(unit, {"b": "*"})
    rule = ToyPbRule(identity(other))
    with pytest.raises(MorphismError, match="typing-mismatch"):
        toypb_step(rule, identity(g))


# ----------------------------------------------------- rule validation


def test_fixture_rules_are_valid(replace_rule, keep_rule):
    assert validate_rule(replace_rule).ok
    assert validate_rule(keep_rule).ok


def test_rule_missing_interface_node_flagged(unit):
    # K leaves out a node that the preimage construction would contain
    pattern = LabeledGraph.build(unit, {"p": "*", "q": "*"})
    lprime = LabeledGraph.build(unit, {"p": "*", "q": "*"})
    kprime = LabeledGraph.build(unit, {"p": "*", "q": "*"})
    k = LabeledGraph.build(unit, {"p": "*"})
    rule = PbpoRule(
        L=pattern, K=k, R=k, Lp=lprime, Kp=kprime,
        l=GraphMorphism(k, pattern, {"p": "p"}, {}),
        r=identity(k),
        tL=identity(lprime),
        tK=GraphMorphism(k, kprime, {"p": "p"}, {}),
        lp=identity(kprime))
    report = validate_rule(rule)
    assert "left-square-pullback" in report.codes()


def test_rule_noninjective_typing_flagged(unit):
    two = LabeledGraph.build(unit, {"a": "*", "b": "*"})
    one = LabeledGraph.build(unit, {"t": "*"})
    squash = GraphMorphism(two, one, {"a": "t", "b": "t"}, {})
    rule = PbpoRule(L=two, K=two, R=two, Lp=one, Kp=one,
                    l=identity(two), r=identity(two),
                    tL=squash, tK=squash, lp=identity(one))
    report = validate_rule(rule)
    assert "non-injective-typing" in report.codes()


def test_complete_rule_identity(unit):
    pattern = LabeledGraph.build(unit, {"p": "*"}, {})
    rule = complete_rule(pattern, identity(pattern), identity(pattern), RhsSpec())
    assert is_isomorphic(rule.K, pattern) is not None
    assert is_isomorphic(rule.R, pattern) is not None
    assert validate_rule(rule).ok


def test_complete_rule_node_deletion(unit):
    # pattern node a; type graph has a and context c; the interface type
    # keeps only c, so the interface (and replacement) are empty
    pattern = LabeledGraph.build(unit, {"a": "*"})
    lprime = LabeledGraph.build(
        unit, {"a": "*", "c": "*"},
        {"la": ("a", "a", "*"), "lc": ("c", "c", "*"),
         "ac": ("a", "c", "*"), "ca": ("c", "a", "*")})
    kprime = LabeledGraph.build(unit, {"c": "*"}, {"lc": ("c", "c", "*")})
    t_l = GraphMorphism(pattern, lprime, {"a": "a"}, {})
    lp = GraphMorphism(kprime, lprime, {"c": "c"}, {"lc": "lc"})
    rule = complete_rule(pattern, t_l, lp, RhsSpec(), name="delete-node")
    assert rule.K.nodes == frozenset()
    assert rule.R.nodes == frozenset()

    host = LabeledGraph.build(unit, {"x": "*", "y": "*"}, {"xy": ("x", "y", "*")})
    matches = find_matches(rule, host)
    # either endpoint can be the deleted node
    assert [m.m.node_map for m in matches] == [{"a": "x"}, {"a": "y"}]
    result, trace = pbpo_step(rule, matches[0])
    assert result.nodes == frozenset({"y"})
    assert result.edges == frozenset()  # the incident edge went with the node
    assert verify_trace(trace).ok


def test_complete_rule_bad_spec(unit):
    pattern = LabeledGraph.build(unit, {"p": "*"})
    with pytest.raises(RuleError, match="r-spec-ill-formed"):
        complete_rule(pattern, identity(pattern), identity(pattern),
                      RhsSpec(merge_nodes=(("p", "ghost"),)))


def _complete_with(lat2, spec):
    """Complete the identity rule over ``a -e,f-> b -g-> a`` with ``spec``."""
    pattern = LabeledGraph.build(lat2, {"a": "x1", "b": "x2"},
                                 {"e": ("a", "b", "0"), "f": ("a", "b", "1"),
                                  "g": ("b", "a", "0")})
    return complete_rule(pattern, identity(pattern), identity(pattern), spec)


# Each ill-formed part of an RhsSpec, in the order rule completion reports
# them: classes of both sorts, merged-edge endpoints, node overrides, fresh
# nodes, edge overrides, fresh edges.
_ILL_FORMED_SPECS = [
    ({"merge_nodes": (("a", "ghost"),)}, "unknown interface node 'ghost'"),
    ({"merge_edges": (("e", "ghost"),)}, "unknown interface edge 'ghost'"),
    ({"merge_edges": (("e", "g"),)}, "merged edges have unmerged endpoints"),
    ({"node_labels": {"ghost": "top"}}, "label override for unknown node 'ghost'"),
    ({"node_labels": {"a": "bot"}}, "override 'bot' is below the class join at 'a'"),
    ({"fresh_nodes": {"a": "x1"}}, "fresh node id 'a' already used"),
    ({"edge_labels": {"ghost": "top"}}, "label override for unknown edge 'ghost'"),
    ({"edge_labels": {"f": "0"}}, "override '0' is below the class join at 'f'"),
    ({"fresh_edges": {"e": ("a", "b", "0")}}, "fresh edge id 'e' already used"),
    ({"fresh_edges": {"n": ("a", "ghost", "0")}}, "unknown endpoint 'ghost'"),
]


@pytest.mark.parametrize("fields, message", _ILL_FORMED_SPECS)
def test_complete_rule_names_each_ill_formed_spec(lat2, fields, message):
    with pytest.raises(RuleError, match=f"r-spec-ill-formed: {message}"):
        _complete_with(lat2, RhsSpec(**fields))


def test_complete_rule_reports_the_first_ill_formed_part(lat2):
    """With several parts of a spec ill-formed, the earliest in the order
    above is the one named."""
    order = [_ILL_FORMED_SPECS[i] for i in (0, 2, 3, 5, 6, 9)]  # one per field
    for i, (_, message) in enumerate(order):
        fields = {k: v for spec, _ in order[i:] for k, v in spec.items()}
        with pytest.raises(RuleError, match=f"r-spec-ill-formed: {message}"):
            _complete_with(lat2, RhsSpec(**fields))


def test_complete_rule_merges_edges_and_overrides_their_label(lat2):
    """Merging two parallel edges labels the class with their members' join,
    kept by the smaller id; an override of either member relabels the
    class, and may only raise the label."""
    merged = _complete_with(lat2, RhsSpec(merge_edges=(("f", "e"),)))
    assert merged.R.edge_labels == {"e": "Bool", "g": "0"}
    assert merged.r.edge_map == {"e": "e", "f": "e", "g": "g"}
    relabelled = _complete_with(lat2, RhsSpec(merge_edges=(("f", "e"),),
                                              edge_labels={"f": "top", "g": "Bool"}))
    assert relabelled.R.edge_labels == {"e": "top", "g": "Bool"}
    assert (relabelled.R.src, relabelled.R.tgt) == ({"e": "a", "g": "b"}, {"e": "b", "g": "a"})


def test_a_rule_over_a_dangling_pattern_is_invalid(unit):
    """A rule is valid only if its graphs are.  A deleting rule whose
    pattern edge has no source has five valid morphisms, but is reported
    invalid, and the matcher and the completion refuse it."""
    lprime = LabeledGraph.build(unit, {"a": "*"}, {"e": ("a", "a", "*")})
    pattern = LabeledGraph(unit, frozenset({"a"}), frozenset({"e"}), {"e": ""}, {"e": "a"},
                           {"a": "*"}, {"e": "*"})
    t_l = GraphMorphism(pattern, lprime, {"a": "a"}, {"e": "e"})
    empty = LabeledGraph.empty(unit)
    rule = PbpoRule(L=pattern, K=empty, R=empty, Lp=lprime, Kp=empty,
                    l=GraphMorphism(empty, pattern, {}, {}), r=identity(empty), tL=t_l,
                    tK=identity(empty), lp=GraphMorphism(empty, lprime, {}, {}))
    assert all(f._report.ok for f in (rule.l, rule.r, rule.tL, rule.tK, rule.lp))
    assert validate_rule(rule).codes() == {"dangling-endpoint"}
    with pytest.raises(RuleError, match="invalid-rule"):
        find_matches(rule, lprime)
    with pytest.raises(RuleError, match="graph L is invalid: dangling-endpoint"):
        complete_rule(pattern, t_l, identity(lprime))


RULE_GRAPHS = ("L", "K", "R", "Lp", "Kp")
RULE_ARROWS = {"l": ("K", "L"), "r": ("K", "R"), "tL": ("L", "Lp"), "tK": ("K", "Kp"),
               "lp": ("Kp", "Lp")}


def corrupt_one_graph(rng, rule):
    """``rule`` with one of its five graphs given a dangling edge, an id
    used for both a node and an edge, or a label outside the lattice, and
    each morphism at that graph moved onto the corrupted copy; with the
    graph's name and the code :func:`validate_graph` gives the defect."""
    name = rng.choice(RULE_GRAPHS)
    g = getattr(rule, name)
    nodes = dict(g.node_labels)
    edges = {e: (g.src[e], g.tgt[e], g.edge_labels[e]) for e in g.edges}
    anchor, label = min(g.nodes, default="zz"), rng.choice(g.lattice.sorted_elements())
    code = rng.choice(("dangling-endpoint", "id-clash", "label-domain"))
    if code == "dangling-endpoint":
        edges["zz_edge"] = (*rng.choice([("zz_gone", anchor), (anchor, "zz_gone")]), label)
    elif code == "id-clash":
        nodes.setdefault(anchor, label)
        edges[anchor] = (anchor, anchor, label)
    else:
        nodes[anchor] = "zz_foreign"
    graphs = {x: getattr(rule, x) for x in RULE_GRAPHS}
    graphs[name] = LabeledGraph.build(g.lattice, nodes, edges)
    arrows = {f: GraphMorphism(graphs[dom], graphs[cod], getattr(rule, f).node_map,
                               getattr(rule, f).edge_map)
              for f, (dom, cod) in RULE_ARROWS.items()}
    return dataclasses.replace(rule, **graphs, **arrows), name, code


@given(st.integers(0, 2 ** 32 - 1))
@settings(deadline=None)
def test_a_rule_over_a_corrupted_graph_is_refused_at_every_entry(seed):
    """A random rule with one corrupted graph is reported invalid, naming
    the defect and the graph, and finding its matches, stepping with it
    and normalizing with it raise ``RuleError``."""
    rng = random.Random(seed)
    rule = random_rule(rng, rng.choice(corpus_lattices()))
    host, match = random_host_with_match(rng, rule)
    bad, name, code = corrupt_one_graph(rng, rule)
    report = validate_rule(bad)
    assert any(v.code == code and v.message.startswith(f"{name}: ")
               for v in report.violations), report
    for entry in (lambda: find_matches(bad, host), lambda: pbpo_step(bad, match),
                  lambda: normalize(host, [bad])):
        with pytest.raises(RuleError, match="invalid-rule"):
            entry()


# ------------------------------------------------------------ stepping


def test_step_variable_replacement(replace_rule, lat2):
    host = LabeledGraph.build(lat2, {"g": "x2"})
    (match,) = find_matches(replace_rule, host)
    result, trace = pbpo_step(replace_rule, match)
    assert list(trace.g_mid.node_labels.values()) == ["bot"]
    assert list(result.node_labels.values()) == ["x1"]
    assert verify_trace(trace).ok


def test_step_keep_rule_preserves_label(keep_rule, lat2):
    for label in ("0", "1", "x1", "x2"):
        host = LabeledGraph.build(lat2, {"g": label})
        (match,) = find_matches(keep_rule, host)
        result, trace = pbpo_step(keep_rule, match)
        assert list(trace.g_mid.node_labels.values()) == [label]
        assert list(result.node_labels.values()) == [label]


def test_step_rejects_non_strong_match(replace_rule, lat2):
    host = LabeledGraph.build(lat2, {"g": "x2"})
    (match,) = find_matches(replace_rule, host)
    other = LabeledGraph.build(lat2, {"g": "x2", "h": "x1"})
    from pbpoplus import Match

    bad_alpha = GraphMorphism(other, replace_rule.Lp,
                              {"g": "a", "h": "a"}, {})
    bad = Match(m=GraphMorphism(replace_rule.L, other, {"a": "g"}, {}),
                alpha=bad_alpha, typing=replace_rule.tL)
    with pytest.raises(StrongMatchError):
        pbpo_step(replace_rule, bad)


def test_identity_rule_gives_isomorphic_result(unit):
    pattern = LabeledGraph.build(unit, {"p": "*", "q": "*"}, {"e": ("p", "q", "*")})
    rule = complete_rule(pattern, identity(pattern), identity(pattern), RhsSpec())
    host = pattern.rename({"p": "h1", "q": "h2"}, {"e": "he"})
    (match,) = find_matches(rule, host)
    result, trace = pbpo_step(rule, match)
    assert is_isomorphic(result, host) is not None
    assert verify_trace(trace).ok


def test_step_determinism_and_traces_on_random_instances(lat2):
    rng = random.Random(77)
    done = 0
    while done < 12:
        rule = random_rule(rng, lat2)
        host, match = random_host_with_match(rng, rule)
        result1, trace1 = pbpo_step(rule, match)
        assert verify_trace(trace1).ok
        # permute host ids and rerun
        from genhelpers import permute_ids
        from pbpoplus import Match, compose

        perm = permute_ids(rng, host)
        inv = GraphMorphism(perm.cod, host,
                            {v: k for k, v in perm.node_map.items()},
                            {v: k for k, v in perm.edge_map.items()})
        match2 = Match(m=compose(match.m, perm),
                       alpha=compose(inv, match.alpha), typing=match.typing)
        result2, trace2 = pbpo_step(rule, match2)
        assert is_isomorphic(result1, result2) is not None
        done += 1


def test_fresh_ids_carry_step_index(unit):
    pattern = LabeledGraph.build(unit, {"p": "*"})
    spec = RhsSpec(fresh_nodes={"new": "*"})
    rule = complete_rule(pattern, identity(pattern), identity(pattern), spec)
    host = LabeledGraph.build(unit, {"h": "*"})
    (match,) = find_matches(rule, host)
    result, _ = pbpo_step(rule, match, step=7)
    assert "7:new" in result.nodes


# ------------------------------------------------ ids of step results

# Host ids drawn from an alphabet with the characters the old naming used
# (``|`` for pairs, ``:`` and ``'`` for stamps), and some ids that look
# like the stamps a step at index 0 would pick first.
ID_ALPHABET = "ab|:'0"
STAMP_LIKE = ["0:f0", "0:fe0", "0:f0'2", "0:k_t0_0", "0:k_t0_1", "0:k_t1_0",
              "0:k_t1_1", "0:k_t2_0", "0:k_t2_1"]


@st.composite
def steps_on_odd_ids(draw):
    """A random rule (with a non-injective ``l'`` when ``duplicating``) and
    a strong match into a host renamed to drawn ids, plus a step index."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    duplicating = draw(st.booleans())
    lat = bdd_lattice(["x1", "x2"])
    rule = random_rule(rng, lat)
    while rule.lp.is_injective() == duplicating:
        rule = random_rule(rng, lat)
    host, match = random_host_with_match(rng, rule)
    old = [*host.sorted_nodes, *host.sorted_edges]
    new = draw(st.lists(st.text(ID_ALPHABET, min_size=1, max_size=4)
                        | st.sampled_from(STAMP_LIKE),
                        min_size=len(old), max_size=len(old), unique=True))
    node_map = dict(zip(host.sorted_nodes, new))
    edge_map = dict(zip(host.sorted_edges, new[len(host.nodes):]))
    renamed = host.rename(node_map, edge_map)
    to_new = GraphMorphism(host, renamed, node_map, edge_map)
    to_old = GraphMorphism(renamed, host, {v: k for k, v in node_map.items()},
                           {v: k for k, v in edge_map.items()})
    match = Match(m=compose(match.m, to_new), alpha=compose(to_old, match.alpha),
                  typing=match.typing)
    return rule, match, draw(st.integers(0, 20))


def all_ids(g):
    return [*g.nodes, *g.edges]


@given(steps_on_odd_ids())
@settings(max_examples=120, deadline=None)
def test_step_keeps_host_ids_and_stamps_the_rest(case):
    rule, match, step = case
    host = match.alpha.dom
    result, trace = pbpo_step(rule, match, step=step)
    assert result == reference_step(rule, match, step)[0]
    assert verify_trace(trace).ok
    host_objects = {x: x for x in all_ids(host)}
    rule_ids = [*all_ids(rule.Kp), *all_ids(rule.R)]
    longest_stamp = len(f"{step}:{max(rule_ids, key=len, default='')}'") + len(
        str(len(host_objects) + len(all_ids(trace.g_mid)) + len(rule_ids) + 1))
    for g in (trace.g_mid, result):
        ids = all_ids(g)
        assert len(set(ids)) == len(ids)
        for x in ids:
            if host_objects.get(x) is not x:
                assert x not in host_objects and x.startswith(f"{step}:"), x
                assert len(x) <= longest_stamp, x


def test_a_bdd_step_keeps_every_element_outside_the_match():
    """Each element a step leaves alone has the same ``str`` object as id in
    its input and its result, whichever rule fired."""
    rng = random.Random(5)
    traces = [t for _ in range(3) for t in reduce_bdd(build_decision_tree(
        random_truth_table(rng, ["p", "q", "r", "s"])))[1].traces]
    assert {t.rule.name for t in traces} >= {"LEAF_0", "LEAF_1", "MERGE-ISO_s",
                                             "ELIM-VACUOUS"}
    for t in traces:
        matched = {*t.m.node_map.values(), *t.m.edge_map.values()}
        kept = {x: x for x in all_ids(t.g_out)}
        for x in all_ids(t.g_in):
            if x not in matched:
                assert kept[x] is x


# ----------------------------------------------------------- normalize


def test_normalize_no_match(replace_rule, lat2):
    host = LabeledGraph.build(lat2, {"g": "top"})
    out = normalize(host, [replace_rule])
    assert out.steps == 0
    assert out.graph == host
    assert out.reached_fixpoint


def test_normalize_step_limit(replace_rule, lat2):
    # replace-var keeps matching its own output (x1 is again between bottom
    # and the variable class), so the run only stops at the budget
    host = LabeledGraph.build(lat2, {"g": "x2"})
    out = normalize(host, [replace_rule], max_steps=1)
    assert out.steps == 1
    assert not out.reached_fixpoint
    assert out.status == "step-limit-exceeded"
    assert list(out.graph.node_labels.values()) == ["x1"]


def test_normalize_whole_host_is_typed(replace_rule, lat2):
    # the type graph has no context node, so a two-node host admits no
    # adherence at all and the run is already at a fixpoint
    host = LabeledGraph.build(lat2, {"g": "x2", "h": "x2"})
    out = normalize(host, [replace_rule])
    assert out.steps == 0
    assert out.reached_fixpoint


def test_normalize_rejects_a_negative_budget(replace_rule, lat2):
    host = LabeledGraph.build(lat2, {"g": "x2"})
    with pytest.raises(EngineError, match="invalid-budget"):
        normalize(host, [replace_rule], max_steps=-1)


def test_normalize_can_drop_traces():
    """Without traces the run makes the same steps, counts them, and stamps
    each with its true index."""
    tree = build_decision_tree(TruthTable.from_bits("01101000", ["p", "q", "r"]))
    rules = reduction_rules(tree.variables, tree.graph.lattice)
    kept = normalize(tree.graph, rules)
    dropped = normalize(tree.graph, rules, keep_traces=False)
    assert dropped.traces == () and dropped.steps == kept.steps == len(kept.traces) > 0
    assert dropped.graph == kept.graph and dropped.reached_fixpoint
    stamps = {x for x in all_ids(kept.graph) if ":" in x}
    assert stamps and all(int(x.split(":")[0]) > 0 for x in stamps)


def test_normalize_invalid_rule_rejected(unit, lat2, replace_rule):
    host = LabeledGraph.build(unit, {"g": "*"})
    broken = PbpoRule(
        L=replace_rule.L, K=replace_rule.K, R=replace_rule.R,
        Lp=replace_rule.Lp, Kp=replace_rule.Kp,
        l=replace_rule.l, r=replace_rule.r, tL=replace_rule.tL,
        tK=GraphMorphism(replace_rule.K, replace_rule.Kp, {}, {}),
        lp=replace_rule.lp)
    with pytest.raises(RuleError):
        normalize(host, [broken])


def test_normalize_rejects_a_malformed_host(replace_rule, lat2):
    dangling = LabeledGraph.build(lat2, {"g": "x2"}, {"e": ("g", "gone", "0")})
    with pytest.raises(GraphError, match="invalid-graph.*dangling-endpoint"):
        normalize(dangling, [replace_rule])
    foreign = LabeledGraph.build(lat2, {"g": "x9"})
    with pytest.raises(GraphError, match="invalid-graph.*label-domain"):
        normalize(foreign, [replace_rule])


def assert_same_run(got, want):
    """The same rule at the same match and adherence, with the same result,
    at every step, and the same outcome."""
    assert (got.steps, got.reached_fixpoint) == (want.steps, want.reached_fixpoint)
    assert len(got.traces) == len(want.traces)
    for a, b in zip(got.traces, want.traces):
        assert a.rule is b.rule
        assert (a.m, a.alpha, a.g_out) == (b.m, b.alpha, b.g_out)
    assert got.graph == want.graph


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_normalize_steps_as_a_search_of_every_rule_does_on_bdds(seed):
    """Rules certified not to occur are skipped, yet each step fires the
    rule and match that searching every rule from scratch picks."""
    rng = random.Random(seed)
    tree = build_decision_tree(random_truth_table(
        rng, [f"v{i}" for i in range(rng.randint(0, 5))]))
    rules = reduction_rules(tree.variables, tree.graph.lattice)
    assert_same_run(normalize(tree.graph, rules), reference_normalize(tree.graph, rules))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
# Seeds whose adherence searches only the narrowing of candidates along
# open edges keeps short.
@example(1408942841)
@example(2753000893)
def test_normalize_steps_as_a_search_of_every_rule_does_on_random_rules(seed):
    rng = random.Random(seed)
    lat = rng.choice(corpus_lattices())
    rules = [random_rule(rng, lat) for _ in range(rng.randint(1, 3))]
    host = random_host_with_match(rng, rng.choice(rules))[0]
    budget = rng.randint(0, 3)  # a duplicating rule can double the host each step
    assert_same_run(normalize(host, rules, max_steps=budget),
                    reference_normalize(host, rules, max_steps=budget))


def test_normalize_searches_no_adherence_for_an_occurrence_that_cannot_match(monkeypatch):
    """Seed 254 of the property above.  One rule has no context node, so a
    host node it does not match fits nowhere, and the host, which another
    rule doubles each step, soon has more nodes than its pattern: the rule
    cannot match, and its occurrences get no adherence search.  One search
    per occurrence would be 37,391 searches within four steps."""
    rng = random.Random(254)
    lat = rng.choice(corpus_lattices())
    rules = [random_rule(rng, lat) for _ in range(rng.randint(1, 3))]
    host = random_host_with_match(rng, rng.choice(rules))[0]
    assert any(not rule._context_labels for rule in rules)
    searches = []
    adherences_for = matching._adherences_for

    def counted(m, t_l, g):
        searches.append(m)
        return adherences_for(m, t_l, g)

    monkeypatch.setattr(matching, "_adherences_for", counted)
    result = normalize(host, rules, max_steps=4)
    assert result.steps == 4 and len(result.graph.nodes) == 33
    assert len(searches) <= 4 * len(result.graph.nodes)
    assert_same_run(result, reference_normalize(host, rules, max_steps=4))


def test_normalize_rescans_a_rule_that_occurs_without_a_strong_match(lat2):
    """Only a rule whose pattern does not occur is certified.  Here ``promote``
    occurs at ``g`` but the 0-leaf ``h`` fits no context of its type graph;
    deleting ``h`` changes no element of the occurrence, yet makes it a
    strong match."""
    pattern = LabeledGraph.build(lat2, {"a": "x1"})
    context = LabeledGraph.build(lat2, {"a": "x1", "c": "Var"})
    interface_type = LabeledGraph.build(lat2, {"a": "bot", "c": "Var"})
    promote = complete_rule(
        pattern, GraphMorphism(pattern, context, {"a": "a"}, {}),
        GraphMorphism(interface_type, context, {"a": "a", "c": "c"}, {}),
        RhsSpec(node_labels={"a": "x2"}), name="promote")
    pattern = LabeledGraph.build(lat2, {"b": "0"})
    context = LabeledGraph.build(lat2, {"b": "0", "c": "top"})
    interface_type = LabeledGraph.build(lat2, {"c": "top"})
    drop = complete_rule(
        pattern, GraphMorphism(pattern, context, {"b": "b"}, {}),
        GraphMorphism(interface_type, context, {"c": "c"}, {}), name="drop-0")
    host = LabeledGraph.build(lat2, {"g": "x1", "h": "0"})
    result = normalize(host, [promote, drop])
    assert [t.rule.name for t in result.traces] == ["drop-0", "promote"]
    assert result.graph.node_labels == {"g": "x2"} and result.reached_fixpoint
    assert_same_run(result, reference_normalize(host, [promote, drop]))


def test_normalize_rescans_a_rule_whose_matches_are_all_ruled_out_at_once(lat2):
    """As above with two 0-leaves: more host nodes than ``promote``'s
    pattern has fit no context node, so its matches are ruled out before
    any search, yet its pattern occurs at ``g``.  Certifying it there would
    skip it for good, since deleting the leaves changes no element of the
    occurrence."""
    pattern = LabeledGraph.build(lat2, {"a": "x1"})
    context = LabeledGraph.build(lat2, {"a": "x1", "c": "Var"})
    interface_type = LabeledGraph.build(lat2, {"a": "bot", "c": "Var"})
    promote = complete_rule(
        pattern, GraphMorphism(pattern, context, {"a": "a"}, {}),
        GraphMorphism(interface_type, context, {"a": "a", "c": "c"}, {}),
        RhsSpec(node_labels={"a": "x2"}), name="promote")
    pattern = LabeledGraph.build(lat2, {"b": "0"})
    context = LabeledGraph.build(lat2, {"b": "0", "c": "top"})
    interface_type = LabeledGraph.build(lat2, {"c": "top"})
    drop = complete_rule(
        pattern, GraphMorphism(pattern, context, {"b": "b"}, {}),
        GraphMorphism(interface_type, context, {"c": "c"}, {}), name="drop-0")
    host = LabeledGraph.build(lat2, {"g": "x1", "h": "0", "k": "0"})
    result = normalize(host, [promote, drop])
    assert [t.rule.name for t in result.traces] == ["drop-0", "drop-0", "promote"]
    assert result.graph.node_labels == {"g": "x2"} and result.reached_fixpoint
    assert_same_run(result, reference_normalize(host, [promote, drop]))


def test_normalize_searches_from_scratch_about_once_per_step(monkeypatch):
    """A random 6-variable reduction: a rule is searched in full when it
    fires or occurs, otherwise only through what the steps changed.
    Searching every rule on every step takes about 4.5 scans a step."""
    tree = build_decision_tree(random_truth_table(
        random.Random(66), [f"v{i}" for i in range(6)]))
    rules = reduction_rules(tree.variables, tree.graph.lattice)
    scans = []
    first_match = rewriting._first_match

    def counted(rule, g):
        scans.append(rule.name)
        return first_match(rule, g)

    monkeypatch.setattr(rewriting, "_first_match", counted)
    result = normalize(tree.graph, rules, keep_traces=False)
    assert result.reached_fixpoint and result.steps > 90
    assert len(scans) <= result.steps + 4 * len(rules)


# ----------------------------------- embeddings of the toy formalisms


def test_toypo_agrees_with_pbpo_on_desk_fixture(unit):
    lhs = LabeledGraph.build(unit, {"a": "*", "b": "*"}, {"ab": ("a", "b", "*")})
    rhs = LabeledGraph.build(unit, {"ab": "*", "c": "*"}, {"loop": ("ab", "ab", "*")})
    rho = GraphMorphism(lhs, rhs, {"a": "ab", "b": "ab"}, {"ab": "loop"})
    po_result, _ = toypo_step(ToyPoRule(rho), identity(lhs))

    rule = complete_rule(lhs, identity(lhs), identity(lhs),
                         RhsSpec(merge_nodes=(("a", "b"),),
                                 fresh_nodes={"c": "*"}))
    (match,) = find_matches(rule, lhs)
    pb_result, _ = pbpo_step(rule, match)
    assert is_isomorphic(po_result, pb_result) is not None


def test_toypb_agrees_with_pbpo_on_desk_fixture(unit):
    one_loop = LabeledGraph.build(unit, {"t": "*"}, {"l": ("t", "t", "*")})
    two_loops = LabeledGraph.build(unit, {"s": "*"},
                                   {"l1": ("s", "s", "*"), "l2": ("s", "s", "*")})
    rho = GraphMorphism(two_loops, one_loop, {"s": "t"}, {"l1": "l", "l2": "l"})
    pb_result, _ = toypb_step(ToyPbRule(rho), identity(one_loop))

    rule = complete_rule(one_loop, identity(one_loop), rho, RhsSpec())
    (match,) = find_matches(rule, one_loop)
    result, trace = pbpo_step(rule, match)
    assert is_isomorphic(pb_result, result) is not None
    assert verify_trace(trace).ok


# ------------------------------------------------ step verification


@pytest.fixture
def leaf_steps():
    """Two LEAF_0 steps at different matches of one decision tree."""
    tree = build_decision_tree(TruthTable.from_bits("0001", ["p", "q"]))
    rule = leaf_rule("0", tree.graph.lattice)
    first, second = find_matches(rule, tree.graph)[:2]
    return rule, first, second, pbpo_step(rule, first)[1], pbpo_step(rule, second)[1]


def with_node(g, ident, label):
    """``g`` plus one isolated node."""
    return LabeledGraph.build(
        g.lattice, {**g.node_labels, ident: label},
        {e: (g.src[e], g.tgt[e], g.edge_labels[e]) for e in g.edges})


def retarget(f, dom=None, cod=None, node_changes=()):
    return GraphMorphism(dom or f.dom, cod or f.cod,
                         {**f.node_map, **dict(node_changes)}, dict(f.edge_map))


def test_verify_match_square_answers_instead_of_raising(leaf_steps):
    rule, first, second, _, _ = leaf_steps
    assert verify_match_square(first)
    crossed = Match(m=second.m, alpha=first.alpha, typing=rule.tL)
    assert not verify_match_square(crossed)


def corrupted_fields(rule, second, trace):
    """Each morphism of a ``leaf_steps`` trace replaced in turn by a wrong
    one, with the code that :func:`verify_trace` must report for it."""
    kp_swap = GraphMorphism(rule.Kp, rule.Kp, {"u": "v", "v": "u", "c": "c"},
                            {"cu": "cv", "cv": "cu", "cc": "cc"})
    return {
        "m": (second.m, "match-square"),
        "alpha": (second.alpha, "match-square"),
        # A leaf image moved: its incoming edge no longer lands on it.
        "g_l": (retarget(trace.g_l, node_changes={"d00": "d01"}), "target-commutation"),
        "g_r": (retarget(trace.g_r, node_changes={"d10": "d00"}), "target-commutation"),
        # Valid morphisms that break one equation each.
        "u": (retarget(trace.u, node_changes={"u": "d01", "v": "d00"}), "mediator"),
        "u_prime": (compose(trace.u_prime, kp_swap), "middle-square"),
        "w": (retarget(trace.w, node_changes={"u": "d10"}), "right-square"),
    }


def test_verify_trace_reports_each_corrupted_field(leaf_steps):
    rule, first, second, trace, _ = leaf_steps
    assert verify_trace(trace).ok
    assert trace.u.node_map == {"u": "d00", "v": "d01"}
    for name, (bad, code) in corrupted_fields(rule, second, trace).items():
        report = verify_trace(dataclasses.replace(trace, **{name: bad}))
        assert not report.ok and code in report.codes(), (name, str(report))


def test_verify_trace_reports_a_morphism_between_other_graphs(leaf_steps):
    _, _, _, trace, other = leaf_steps
    report = verify_trace(dataclasses.replace(trace, g_r=other.g_r))
    assert report.codes() == {"bad-arrangement"}


def test_verify_trace_reports_a_malformed_graph_instead_of_raising():
    """A trace graph with a dangling edge is reported under its field name,
    and the step check, which would read the missing endpoint, is not run."""
    _, result = reduce_bdd(build_decision_tree(TruthTable.from_bits("0001", ["p", "q"])))
    trace = result.traces[0]
    assert trace.rule.name == "LEAF_0" and "e0" in trace.g_out.src
    g_out = dataclasses.replace(trace.g_out, src={e: s for e, s in trace.g_out.src.items()
                                                  if e != "e0"})
    bad = dataclasses.replace(trace, g_out=g_out, g_r=dataclasses.replace(trace.g_r, cod=g_out),
                              w=dataclasses.replace(trace.w, cod=g_out))
    report = verify_trace(bad)
    assert report.codes() == {"dangling-endpoint"}
    assert str(report).startswith("dangling-endpoint: g_out: edge 'e0'")


def test_step_rejects_rule_with_dangling_replacement(leaf_steps):
    rule, first, _, trace, _ = leaf_steps
    bad_r = GraphMorphism(rule.K, rule.R, {**rule.r.node_map, "u": "zzz"},
                          dict(rule.r.edge_map))
    bad_rule = dataclasses.replace(rule, r=bad_r)
    with pytest.raises(RuleError, match="invalid-rule"):
        pbpo_step(bad_rule, first)
    report = verify_trace(dataclasses.replace(trace, rule=bad_rule))
    assert "bad-target" in report.codes()


def test_verify_trace_checks_the_arrangement_under_an_invalid_rule(leaf_steps):
    """Only a bad trace graph ends the check before the arrangement: an
    invalid rule is reported together with a morphism between other
    graphs."""
    rule, _, _, trace, other = leaf_steps
    bad_r = GraphMorphism(rule.K, rule.R, {**rule.r.node_map, "u": "zzz"},
                          dict(rule.r.edge_map))
    report = verify_trace(dataclasses.replace(trace, rule=dataclasses.replace(rule, r=bad_r),
                                              g_r=other.g_r))
    assert {"bad-target", "bad-arrangement"} <= report.codes()


def lacking_universal_property(rule, trace):
    """Variants of a ``leaf_steps`` trace whose squares all commute but
    lack one universal property, and one whose ``u`` is not injective."""
    # The host gets a second node typed onto the pattern node v.
    alpha = GraphMorphism(trace.g_in, rule.Lp, {**trace.alpha.node_map, "d10": "v"},
                          {**trace.alpha.edge_map, "e10": "cv"})
    match = dataclasses.replace(trace, alpha=alpha)

    # G_R gets a node that nothing maps onto.
    g_out = with_node(trace.g_out, "y", "0")
    addition = dataclasses.replace(trace, g_out=g_out,
                                   g_r=retarget(trace.g_r, cod=g_out),
                                   w=retarget(trace.w, cod=g_out))

    # G_K gets a second copy of a context leaf.
    g_mid = with_node(trace.g_mid, "x", "0")
    deletion = dataclasses.replace(
        trace, g_mid=g_mid, u=retarget(trace.u, cod=g_mid),
        g_l=retarget(trace.g_l, dom=g_mid, node_changes={"x": "d10"}),
        u_prime=retarget(trace.u_prime, dom=g_mid, node_changes={"x": "c"}),
        g_r=retarget(trace.g_r, dom=g_mid, node_changes={"x": "d10"}))

    # ... or a second copy of the interface node over the matched leaf.
    middle = dataclasses.replace(
        deletion,
        g_l=retarget(trace.g_l, dom=g_mid, node_changes={"x": "d00"}),
        u_prime=retarget(trace.u_prime, dom=g_mid, node_changes={"x": "u"}),
        g_r=retarget(trace.g_r, dom=g_mid, node_changes={"x": "d00"}))

    non_injective = dataclasses.replace(
        trace, u=retarget(trace.u, node_changes={"v": "d00"}))
    return {"match": match, "addition": addition, "deletion": deletion,
            "middle": middle, "non_injective": non_injective}


def test_verify_trace_reports_each_universal_property(leaf_steps):
    rule, _, _, trace, _ = leaf_steps
    bad = lacking_universal_property(rule, trace)

    def messages(name):
        return {v.message for v in verify_trace(bad[name]).violations}

    assert "the strong-match square is not a pullback" in messages("match")
    assert messages("addition") == {"the addition square is not a pushout"}
    assert messages("deletion") == {"the deletion square is not a pullback",
                                    "the addition square is not a pushout"}
    assert "u is not the pullback of m along g_L" in messages("middle")
    assert "interface embedding u is not injective" in messages("non_injective")


def with_isolated_nodes(trace, extra_host=(), extra_mid=(), extra_out=()):
    """``trace`` with isolated ``0``-nodes added: ``(h, type)`` to ``G_L``,
    typed onto a node of ``L'``; ``(x, g, kp, r)`` to ``G_K``, over ``g``,
    ``kp`` and ``r``; and ``y`` to ``G_R``, hit by nothing."""
    g_in, g_mid, g_out = trace.g_in, trace.g_mid, trace.g_out
    for h, _ in extra_host:
        g_in = with_node(g_in, h, "0")
    for x, *_ in extra_mid:
        g_mid = with_node(g_mid, x, "0")
    for y in extra_out:
        g_out = with_node(g_out, y, "0")
    return dataclasses.replace(
        trace, g_in=g_in, g_mid=g_mid, g_out=g_out,
        m=retarget(trace.m, cod=g_in),
        alpha=retarget(trace.alpha, dom=g_in, node_changes=extra_host),
        g_l=retarget(trace.g_l, dom=g_mid, cod=g_in,
                     node_changes=[(x, g) for x, g, _, _ in extra_mid]),
        u_prime=retarget(trace.u_prime, dom=g_mid,
                         node_changes=[(x, kp) for x, _, kp, _ in extra_mid]),
        g_r=retarget(trace.g_r, dom=g_mid, cod=g_out,
                     node_changes=[(x, r) for x, _, _, r in extra_mid]),
        u=retarget(trace.u, cod=g_mid), w=retarget(trace.w, cod=g_out))


def aimed_at_fused_checks(rule, trace):
    """Variants of a ``leaf_steps`` trace whose legs are valid and whose
    squares commute, each failing one decision of the pass over ``G_K``,
    with the messages the step check must give."""
    lowered = with_node(trace.g_mid, "d10", "bot")  # outside u(K), below meet(0, top)
    deletion, addition = ("the deletion square is not a pullback",
                          "the addition square is not a pushout")
    return {
        "label off the meet": (dataclasses.replace(
            trace, g_mid=lowered, u=retarget(trace.u, cod=lowered),
            g_l=retarget(trace.g_l, dom=lowered), g_r=retarget(trace.g_r, dom=lowered),
            u_prime=retarget(trace.u_prime, dom=lowered)), {deletion, addition}),
        # x is a second pair over (d10, c); h, typed like d10, has none.
        "repeated pair": (with_isolated_nodes(trace, [("h", "c")], [("x", "d10", "c", "d10")]),
                          {deletion, addition}),
        "missing fibre copy": (with_isolated_nodes(trace, [("h", "c")]), {deletion}),
        # x is h's copy, but lands on d10's image and leaves y unhit.
        "hit twice, one unhit": (with_isolated_nodes(trace, [("h", "c")],
                                         [("x", "h", "c", "d10")], ["y"]), {addition}),
    }


def outcome_of(check, trace):
    report = check(trace)
    return report.ok, [(v.code, v.message) for v in report.violations]


def test_fused_step_check_gives_the_composite_verdict(leaf_steps):
    """The pass over ``G_K`` reports what the composite check over rebuilt
    limits reports, on each corrupted field, each missing universal
    property and each decision of the pass."""
    rule, _, second, trace, _ = leaf_steps
    traces = [dataclasses.replace(trace, **{name: bad})
              for name, (bad, _) in corrupted_fields(rule, second, trace).items()]
    traces += lacking_universal_property(rule, trace).values()
    for bad, messages in aimed_at_fused_checks(rule, trace).values():
        assert {v.message for v in _check_step(bad).violations} == messages
        traces.append(bad)
    for t in traces:
        assert outcome_of(_check_step, t) == outcome_of(reference_check_step, t)


def corrupt(rng, trace):
    """``trace`` with one random defect aimed at a decision of the pass over
    ``G_K``, or unchanged; the defect may also break a leg."""
    g_mid, g_out = trace.g_mid, trace.g_out
    edges = rng.random() < 0.5 and bool(g_mid.edges)
    ids = sorted(g_mid.edges if edges else g_mid.nodes)
    which = rng.choice(["none", "label", "retyped", "pair", "missing", "hit twice", "unhit"])
    if which == "none" or not ids:
        return trace
    x = rng.choice(ids)

    def changed_map(f, **images):
        node_map, edge_map = dict(f.node_map), dict(f.edge_map)
        (edge_map if edges else node_map).update(images)
        return GraphMorphism(f.dom, f.cod, node_map, edge_map)

    def rebuilt_mid(mid):
        return dataclasses.replace(trace, g_mid=mid, u=retarget(trace.u, cod=mid), **{
            name: GraphMorphism(mid, f.cod,
                                {k: v for k, v in f.node_map.items() if k in mid.nodes},
                                {k: v for k, v in f.edge_map.items() if k in mid.edges})
            for name, f in (("g_l", trace.g_l), ("u_prime", trace.u_prime),
                            ("g_r", trace.g_r))})

    if which == "label":
        labels = dict(g_mid.edge_labels if edges else g_mid.node_labels)
        labels[x] = rng.choice(g_mid.lattice.sorted_elements())
        return rebuilt_mid(dataclasses.replace(
            g_mid, **{"edge_labels" if edges else "node_labels": labels}))
    if which == "retyped":
        kp = trace.rule.Kp
        return dataclasses.replace(trace, u_prime=changed_map(
            trace.u_prime, **{x: rng.choice(kp.sorted_edges if edges else kp.sorted_nodes)}))
    if which == "pair":
        y = rng.choice(ids)
        return dataclasses.replace(trace, **{
            name: changed_map(f, **{x: (f.edge_map if edges else f.node_map)[y]})
            for name, f in (("g_l", trace.g_l), ("u_prime", trace.u_prime))})
    if which == "missing":
        if not edges and g_mid.incident_edges[x]:
            return trace
        keep = (g_mid.nodes, g_mid.edges - {x}) if edges else (g_mid.nodes - {x}, g_mid.edges)
        mid = LabeledGraph(g_mid.lattice, keep[0], keep[1],
                           {e: g_mid.src[e] for e in keep[1]}, {e: g_mid.tgt[e] for e in keep[1]},
                           {n: g_mid.node_labels[n] for n in keep[0]},
                           {e: g_mid.edge_labels[e] for e in keep[1]})
        if x in (trace.u.edge_map if edges else trace.u.node_map).values():
            return trace
        return rebuilt_mid(mid)
    if which == "hit twice":
        y = rng.choice(ids)
        return dataclasses.replace(trace, g_r=changed_map(
            trace.g_r, **{x: (trace.g_r.edge_map if edges else trace.g_r.node_map)[y]}))
    out = with_node(g_out, "unhit", rng.choice(g_out.lattice.sorted_elements()))
    return dataclasses.replace(trace, g_out=out, g_r=retarget(trace.g_r, cod=out),
                               w=retarget(trace.w, cod=out))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_fused_step_check_agrees_with_the_composite_reference(seed):
    """On BDD steps and random-rule steps (duplicating, deleting, merging and
    adding), whole or with a defect aimed at one decision of the pass, the
    step check gives the reference's verdict, codes and messages."""
    rng = random.Random(seed)
    if rng.random() < 0.4:
        tree = build_decision_tree(random_truth_table(
            rng, [f"x{i}" for i in range(rng.randint(1, 3))]))
        steps = [(rule, match) for rule in reduction_rules(tree.variables, tree.graph.lattice)
                 for match in find_matches(rule, tree.graph)[:1]]
        if not steps:
            return
        rule, match = rng.choice(steps)
    else:
        rule = random_rule(rng, rng.choice(corpus_lattices()))
        match = random_host_with_match(rng, rule)[1]
    trace = pbpo_step(rule, match)[1]
    bad = corrupt(rng, trace)
    assert outcome_of(_check_step, bad) == outcome_of(reference_check_step, bad)


# ----------------------------------------- steps that edit copies


TRACE_FIELDS = ("g_in", "g_mid", "g_out", "m", "alpha", "g_l", "g_r", "u", "u_prime", "w")


def random_step(rng):
    """A rule and a strong match: a BDD reduction rule at a match in a tree
    of up to four variables, or a random rule (duplicating, deleting and
    relabelling through its context, merging and adding) at a match in a
    random host."""
    if rng.random() < 0.4:
        tree = build_decision_tree(random_truth_table(
            rng, [f"x{i}" for i in range(rng.randint(1, 4))]))
        steps = [(rule, match) for rule in reduction_rules(tree.variables, tree.graph.lattice)
                 for match in find_matches(rule, tree.graph)[:2]]
        if steps:
            return rng.choice(steps)
    rule = random_rule(rng, rng.choice(corpus_lattices()))
    return rule, random_host_with_match(rng, rule)[1]


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_step_builds_what_the_limits_build(seed):
    """Every graph of the trace, with its ids, labels and endpoints, and
    every leg's maps equal those built through ``pullback`` and
    ``pushout`` and renamed as a step names its elements."""
    rng = random.Random(seed)
    rule, match = random_step(rng)
    step = rng.randint(0, 20)
    result, trace = pbpo_step(rule, match, step=step)
    want, reference = reference_step(rule, match, step)
    assert result == want
    for name in TRACE_FIELDS:
        assert getattr(trace, name) == getattr(reference, name), name


INDEXES = ("sorted_nodes", "sorted_edges", "incident_edges", "edges_by_endpoints")


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_a_step_carries_its_hosts_indexes_patched(seed):
    """On every step of a random BDD or random-rule reduction, a result
    whose host held its indexes holds them too, and each equals the index
    the result builds from scratch."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        tree = build_decision_tree(random_truth_table(
            rng, [f"x{i}" for i in range(rng.randint(1, 5))]))
        run = normalize(tree.graph, reduction_rules(tree.variables, tree.graph.lattice))
    else:
        lat = rng.choice(corpus_lattices())
        rules = [random_rule(rng, lat) for _ in range(rng.randint(1, 3))]
        run = normalize(random_host_with_match(rng, rng.choice(rules))[0], rules,
                        max_steps=rng.randint(1, 3))
    for i, t in enumerate(run.traces):
        for g in (t.g_in, t.g_out):
            fresh = dataclasses.replace(g)
            for name in INDEXES:
                assert getattr(g, name) == getattr(fresh, name), name
        result, _ = pbpo_step(t.rule, Match(t.m, t.alpha, t.rule.tL), step=i)
        fresh = dataclasses.replace(result)
        for name in INDEXES:
            assert vars(result)[name] == getattr(fresh, name), name


# ------------------------------------------- steps checked on their patch


def patched_outcome(trace, patch):
    """The step check on a copy of ``patch``, as :func:`pbpo_step` runs it."""
    return outcome_of(lambda t: _check_step(t, [set(patch[0]), set(patch[1])]), trace)


def widened(rng, trace, patch):
    """``patch`` with a random set of further ids of each sort of the
    trace's graphs: a patch too large must be decided alike."""
    graphs = (trace.g_in, trace.g_mid, trace.g_out)
    pools = (sorted(set().union(*(g.nodes for g in graphs))),
             sorted(set().union(*(g.edges for g in graphs))))
    return [p | set(rng.sample(pool, rng.randint(0, len(pool))))
            for p, pool in zip(patch, pools)]


def differing_ids(a, b, edges):
    """The ids of one sort at which two traces of a step differ: in a label
    or an endpoint of one of their graphs, or in the image under a leg or
    ``alpha``."""
    def maps(t):
        graphs = (t.g_in, t.g_mid, t.g_out)
        legs = (t.g_l, t.u_prime, t.g_r, t.alpha)
        if edges:
            return ([g.edge_labels for g in graphs] + [g.src for g in graphs]
                    + [g.tgt for g in graphs] + [f.edge_map for f in legs])
        return [g.node_labels for g in graphs] + [f.node_map for f in legs]

    return {x for p, q in zip(maps(a), maps(b)) for x in p.keys() | q.keys()
            if p.get(x) != q.get(x)}


def run_recording_patches(host, rules, max_steps):
    """Normalize, recording each step's trace and the patch its
    construction reported."""
    steps = []
    construct = rewriting._construct

    def recording(rule, match, step):
        trace, patch = construct(rule, match, step)
        steps.append((trace, [set(patch[0]), set(patch[1])]))
        return trace, patch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewriting, "_construct", recording)
        normalize(host, rules, max_steps=max_steps)
    return steps


def assert_patch_holds(trace, patch):
    """The patch a correct step reports satisfies the premise of the patch
    lemma, so its check is not widened to the whole graphs."""
    assert all(reference_premise(trace, edges, patch[edges]) for edges in (False, True))


def random_rule_without_sink(rng, lat):
    """A random rule whose context is not a sink, so that its adherences
    come from the pooled search; after 20 tries, any random rule."""
    for _ in range(20):
        rule = random_rule(rng, lat)
        if rule._sink is None:
            break
    return rule


@given(st.integers(0, 2 ** 32 - 1))
@settings(deadline=None)
def test_a_step_checked_on_its_patch_decides_as_the_full_check(seed):
    """On every step of a run of random sink rules, random rules without a
    sink or BDD rules, whole or with a defect aimed at one decision of the
    pass, the check on the patch the construction reports gives the verdict,
    codes and messages of the check on the whole graphs."""
    rng = random.Random(seed)
    kind = rng.choice(["sink", "no sink", "bdd"])
    if kind == "bdd":
        tree = build_decision_tree(random_truth_table(
            rng, [f"x{i}" for i in range(rng.randint(1, 3))]))
        host, rules, budget = tree.graph, reduction_rules(tree.variables, tree.graph.lattice), None
    else:
        lat = rng.choice(corpus_lattices())
        make = random_sink_rule if kind == "sink" else random_rule_without_sink
        rules = [make(rng, lat) for _ in range(rng.randint(1, 3))]
        host, budget = random_host_with_match(rng, rng.choice(rules))[0], rng.randint(1, 4)
    for trace, patch in run_recording_patches(host, rules, budget):
        assert_patch_holds(trace, patch)
        for t in (trace, corrupt(rng, trace)):
            assert (patched_outcome(t, patch) == patched_outcome(t, widened(rng, t, patch))
                    == outcome_of(_check_step, t))


def test_a_patch_around_each_defect_decides_as_the_full_check(leaf_steps):
    """Each corrupted field, missing universal property and defect aimed at
    a decision of the pass, with the ids where it differs from the step
    added to the patch, so the premise holds and the defect is decided
    element by element: the verdict is the full check's."""
    rule, first, second, trace, _ = leaf_steps
    _, patch = rewriting._construct(rule, first, 0)
    bad = [dataclasses.replace(trace, **{name: f})
           for name, (f, _) in corrupted_fields(rule, second, trace).items()]
    bad += lacking_universal_property(rule, trace).values()
    bad += [t for t, _ in aimed_at_fused_checks(rule, trace).values()]
    for t in bad:
        around = [patch[edges] | differing_ids(trace, t, edges) for edges in (False, True)]
        assert patched_outcome(t, around) == outcome_of(_check_step, t)


def test_sweep_steps_checked_on_their_patch_decide_as_the_full_check(bdd_sweep):
    """On every step of the criterion-7 corpus, rebuilt from its match to
    get its patch: the step keeps to its patch, and with a defect aimed at
    one decision of the pass its check on the patch is the full check."""
    rng = random.Random(13)
    runs, _ = bdd_sweep
    for run in runs:
        for i, trace in enumerate(run.result.traces):
            rebuilt, patch = rewriting._construct(
                trace.rule, Match(trace.m, trace.alpha, trace.rule.tL), i)
            assert rebuilt == trace
            assert_patch_holds(trace, patch)
            bad = corrupt(rng, trace)
            assert patched_outcome(bad, patch) == outcome_of(_check_step, bad)


def with_entry(trace, edges, field, x, value):
    """``trace`` with the entry at ``x`` of one sort of a leg (``g_l``,
    ``u_prime``, ``g_r``) or of a map of ``G_K`` or ``G_R`` (``g_mid.src``,
    ``g_out.node_labels``, ...) set to ``value``; the legs are rebuilt
    around a changed graph."""
    if "." not in field:
        f = getattr(trace, field)
        maps = {"node_map": dict(f.node_map), "edge_map": dict(f.edge_map)}
        maps["edge_map" if edges else "node_map"][x] = value
        return dataclasses.replace(trace, **{field: dataclasses.replace(f, **maps)})
    graph, attr = field.split(".")
    g = getattr(trace, graph)
    g = dataclasses.replace(g, **{attr: {**getattr(g, attr), x: value}})
    mid, out = (g, trace.g_out) if graph == "g_mid" else (trace.g_mid, g)
    return dataclasses.replace(
        trace, g_mid=mid, g_out=out, u=retarget(trace.u, cod=mid),
        g_l=retarget(trace.g_l, dom=mid), u_prime=retarget(trace.u_prime, dom=mid),
        g_r=retarget(trace.g_r, dom=mid, cod=out), w=retarget(trace.w, cod=out))


# Where a construction can go wrong at one element: a label or an endpoint
# of G_K, of G_R or of both (as when G_R copies a wrong G_K), or a leg.
FAULTS = ("g_mid.labels", "g_out.labels", "both.labels", "g_l", "u_prime", "g_r")
EDGE_FAULTS = ("g_mid.src", "g_out.tgt", "both.tgt")


def fault_at(rng, trace, edges, x, fault):
    """``trace`` with ``fault`` at the ``G_K`` element ``x`` of one sort (or
    at its image in ``G_R``), the entry set to another value of its kind;
    ``None`` if there is none."""
    image = (trace.g_r.edge_map if edges else trace.g_r.node_map)[x]
    where, _, attr = fault.rpartition(".")
    attr = attr.replace("labels", "edge_labels" if edges else "node_labels")
    if where:
        g = trace.g_mid if where != "g_out" else trace.g_out
        old = getattr(g, attr).get(x if where != "g_out" else image)
        values = g.sorted_nodes if attr in ("src", "tgt") else g.lattice.sorted_elements()
    else:
        f = getattr(trace, attr)
        old = (f.edge_map if edges else f.node_map)[x]
        values = f.cod.sorted_edges if edges else f.cod.sorted_nodes
    values = [v for v in values if v != old]
    if not values:
        return None
    value = rng.choice(values)
    if not where:
        return with_entry(trace, edges, attr, x, value)
    if where != "g_out":
        trace = with_entry(trace, edges, f"g_mid.{attr}", x, value)
    if where != "g_mid":
        trace = with_entry(trace, edges, f"g_out.{attr}", image, value)
    return trace


def step_with_fault(rule, match, edges, fault, how, rng):
    """:func:`pbpo_step` at step 1 under a construction that puts ``fault``
    at a random element of one sort of ``G_K``: ``"outside"`` its patch,
    ``"inside"`` it, or inside and then ``"dropped"`` from it; with no
    fault, it drops an element from a correct patch.  The result, or the
    message raised, and the trace built, or ``None`` if no element fits."""
    construct = rewriting._construct
    made = [None]

    def faulty(rule, match, step):
        trace, patch = construct(rule, match, step)
        ids = sorted(trace.g_mid.edges if edges else trace.g_mid.nodes)
        pool = [x for x in ids if (x in patch[edges]) != (how == "outside")]
        if pool:
            x = rng.choice(pool)
            if how == "dropped":
                patch[edges].discard(x)
            made[0] = fault_at(rng, trace, edges, x, fault) if fault else trace
        return made[0] or trace, patch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewriting, "_construct", faulty)
        try:
            return pbpo_step(rule, match, step=1), made[0]
        except InternalMediatorError as exc:
            return str(exc), made[0]


@given(st.integers(0, 2 ** 32 - 1))
@settings(deadline=None)
def test_a_fault_outside_the_reported_patch_is_still_caught(seed):
    """A construction that puts a fault of some kind outside the patch it
    reports, inside it, or at an element it then drops from the patch,
    makes :func:`pbpo_step` raise with the report of the full check; an
    element dropped from a correct patch changes nothing.  Each example
    tries five of the kinds."""
    rng = random.Random(seed)
    rule, match = random_step(rng)
    want = pbpo_step(rule, match, step=1)
    faults = [(edges, fault) for edges in (False, True)
              for fault in (*FAULTS, *EDGE_FAULTS[:3 * edges], None)]
    for edges, fault in rng.sample(faults, 5):
        how = rng.choice(["outside", "inside", "dropped"]) if fault else "dropped"
        got, made = step_with_fault(rule, match, edges, fault, how, rng)
        full = _check_step(made) if made is not None else Report()
        if full.ok:
            assert got == (want if made is None else (made.g_out, made))
            assert fault or made is None or made == want[1]
        else:
            assert got == f"internal-mediator-failure: {full}"


def test_a_created_node_glued_onto_an_untouched_one_is_caught(unit):
    """A construction that drops the node ``R`` creates and has ``w`` send
    it onto a host node outside the patch and outside ``u(K)`` keeps the
    premise of the patch lemma, but gives that host node two classes of the
    addition pushout: the check on the patch reports it."""
    pattern = LabeledGraph.build(unit, {"a": "*"})
    context = LabeledGraph.build(unit, {"a": "*", "c": "*"})
    rule = complete_rule(pattern, GraphMorphism(pattern, context, {"a": "a"}, {}),
                         identity(context), RhsSpec(fresh_nodes={"n": "*"}))
    match = find_matches(rule, LabeledGraph.build(unit, {"h1": "*", "h2": "*"}))[0]
    construct = rewriting._construct
    made = []

    def gluing(rule, match, step):
        trace, patch = construct(rule, match, step)
        created = trace.w.node_map["n"]
        out = LabeledGraph.build(unit, {x: lab for x, lab in trace.g_out.node_labels.items()
                                        if x != created})
        (untouched,) = out.nodes - patch[0] - trace.u.node_image()
        made.append(dataclasses.replace(
            trace, g_out=out, g_r=retarget(trace.g_r, cod=out),
            w=retarget(trace.w, cod=out, node_changes={"n": untouched})))
        assert_patch_holds(made[0], patch)
        return made[0], patch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewriting, "_construct", gluing)
        with pytest.raises(InternalMediatorError,
                           match="the addition square is not a pushout"):
            pbpo_step(rule, match, step=1)
    assert outcome_of(_check_step, made[0]) == outcome_of(reference_check_step, made[0])


# --------------------------------------------------- the step's edit record


def recorded_keys(trace, edges):
    """The keys the edit record of ``trace`` shows removed or written in the
    maps of one sort: the labels of ``G_K`` and ``G_R``, the legs ``g_L``,
    ``u'`` and ``g_R`` and, for edges, the endpoints."""
    maps = [g.edge_labels if edges else g.node_labels for g in (trace.g_mid, trace.g_out)]
    maps += [f.edge_map if edges else f.node_map for f in (trace.g_l, trace.u_prime, trace.g_r)]
    if edges:
        maps += [trace.g_mid.src, trace.g_mid.tgt, trace.g_out.src, trace.g_out.tgt]
    keys = set()
    for entries in maps:
        _, _, removed, written = trace._edits[id(entries)]
        keys.update(removed, written)
    return keys


def run_recording_edits(host, rules, max_steps):
    """Normalize, recording for each step its rule, match and index, its
    trace and patch, the keys its record shows edited, whether the record
    shows the premise of the patch lemma, and the verdicts of the check on
    the patch and in full, taken while the trace carries its record."""
    steps = []
    construct = rewriting._construct

    def recording(rule, match, step):
        trace, patch = construct(rule, match, step)
        steps.append({"rule": rule, "match": match, "step": step, "trace": trace,
                      "patch": [set(patch[0]), set(patch[1])],
                      "edited": [recorded_keys(trace, edges) for edges in (False, True)],
                      "shown": stepcheck._near(trace, patch) is not None,
                      "on patch": patched_outcome(trace, patch),
                      "full": outcome_of(_check_step, trace)})
        return trace, patch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewriting, "_construct", recording)
        normalize(host, rules, max_steps=max_steps)
    return steps


def corrupted_edit(rng, base, removed, written):
    """An edit passed to ``_apply`` with one entry corrupted: a written value
    changed (a label, an endpoint or a leg image), a written key dropped or
    added, a removed key kept or one more removed, or the base built from a
    first input changed at one key; ``None`` if the edit offers none."""
    build, first, *rest = base
    built = build(first, *rest)
    values = sorted({v for v in (*built.values(), *written.values()) if v is not None})
    spare = sorted(set(built) - set(removed) - set(written))
    kinds = [kind for kind, ok in (("value", written and len(values) > 1), ("drop", written),
                                   ("add", built and len(values) > 1), ("keep", removed),
                                   ("remove", spare), ("base", first)) if ok]
    if not kinds:
        return None
    kind = rng.choice(kinds)
    removed, written = list(removed), dict(written)
    if kind in ("value", "add"):
        x = rng.choice(sorted(written if kind == "value" else built))
        now = written.get(x, None if x in removed else built[x])
        written[x] = rng.choice([v for v in values if v != now])
    elif kind == "drop":
        del written[rng.choice(sorted(written))]
    elif kind == "keep":
        removed.remove(rng.choice(sorted(removed)))
    elif kind == "remove":
        removed.append(rng.choice(spare))
    else:
        first = dict(first)
        x = rng.choice(sorted(first))
        others = sorted({v for v in first.values() if v != first[x]})
        if build is stepcheck._identity_on or not others:
            del first[x]
        else:
            first[x] = rng.choice(others)
        base = (build, first, *rest)
    return base, removed, written


def step_with_corrupted_edit(rng, rule, match, step):
    """:func:`pbpo_step` with one random call of ``_apply`` corrupted (see
    :func:`corrupted_edit`): the result, or the message raised, and the
    trace the construction built, or ``None`` if it refused first."""
    apply, construct = rewriting._apply, rewriting._construct
    target, calls, made = rng.randrange(14), [0], [None]

    def corrupting(record, base, removed, written):
        if calls[0] == target:
            base, removed, written = (corrupted_edit(rng, base, removed, written)
                                      or (base, removed, written))
        calls[0] += 1
        return apply(record, base, removed, written)

    def recording(rule, match, step):
        made[0], patch = construct(rule, match, step)
        return made[0], patch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewriting, "_apply", corrupting)
        mp.setattr(rewriting, "_construct", recording)
        try:
            return pbpo_step(rule, match, step=step), made[0]
        except InternalMediatorError as exc:
            return str(exc), made[0]


@given(st.integers(0, 2 ** 32 - 1))
@settings(deadline=None)
def test_each_step_edits_within_its_patch_and_a_faulty_edit_is_caught(seed):
    """On every step of a run of random rules (duplicating through a
    non-injective ``l'``, deleting, merging, creating) or of BDD rules, the
    keys the edit record shows removed or written lie in the reported patch,
    the reference premise holds and the record shows it, and the check on
    the patch gives the full check's verdict.  Replayed with one entry
    passed through ``_apply`` corrupted, the step raises with the full
    check's report of the trace built, is refused by the construction, or
    builds the same trace."""
    rng = random.Random(seed)
    if rng.random() < 0.4:
        tree = build_decision_tree(random_truth_table(
            rng, [f"x{i}" for i in range(rng.randint(1, 3))]))
        host, rules, budget = tree.graph, reduction_rules(tree.variables, tree.graph.lattice), None
    else:
        lat = rng.choice(corpus_lattices())
        rules = [random_rule(rng, lat) for _ in range(rng.randint(1, 3))]
        host, budget = random_host_with_match(rng, rng.choice(rules))[0], rng.randint(1, 4)
    for step in run_recording_edits(host, rules, budget):
        trace, patch = step["trace"], step["patch"]
        assert step["edited"][0] <= patch[0] and step["edited"][1] <= patch[1]
        assert_patch_holds(trace, patch)
        assert step["shown"]
        assert step["on patch"] == step["full"]
        got, made = step_with_corrupted_edit(rng, step["rule"], step["match"], step["step"])
        if made is None:
            assert got.startswith("internal-mediator-failure: ")
            continue
        full = _check_step(made)
        if full.ok:
            assert got == (made.g_out, made) and made == trace
        else:
            assert got == f"internal-mediator-failure: {full}"


def test_an_edge_left_at_a_duplicated_node_is_refused(unit):
    """A deletion that duplicates a node but leaves one of its edges at the
    host node it removed builds a dangling edge, which the construction
    refuses: the edge was not written, but it is a host edge at a removed
    node."""
    pattern = LabeledGraph.build(unit, {"a": "*"})
    context = LabeledGraph.build(unit, {"a": "*", "c": "*"}, {"ca": ("c", "a", "*")})
    copies = LabeledGraph.build(unit, {"a1": "*", "a2": "*", "c": "*"},
                                {"ca1": ("c", "a1", "*")})
    rule = complete_rule(pattern, GraphMorphism(pattern, context, {"a": "a"}, {}),
                         GraphMorphism(copies, context, {"a1": "a", "a2": "a", "c": "c"},
                                       {"ca1": "ca"}))
    host = LabeledGraph.build(unit, {"h": "*", "g": "*"}, {"e": ("g", "h", "*")})
    (match,) = find_matches(rule, host)
    assert pbpo_step(rule, match)[0].tgt["e"] != "h"
    apply = rewriting._apply

    def forgetting(record, base, removed, written):
        return apply(record, base, removed, {x: v for x, v in written.items() if x != "e"})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewriting, "_apply", forgetting)
        with pytest.raises(InternalMediatorError, match="dangling edge"):
            pbpo_step(rule, match)


WRONG_TYPED = {
    "normalize-host": (lambda rule, g, match: normalize("host", [rule]), GraphError),
    "normalize-rules": (lambda rule, g, match: normalize(g, [1]), RuleError),
    "normalize-budget": (lambda rule, g, match: normalize(g, [rule], max_steps="3"),
                         EngineError),
    "find_matches-rule": (lambda rule, g, match: find_matches("r", g), RuleError),
    "find_matches-graph": (lambda rule, g, match: find_matches(rule, "g"), GraphError),
    "pbpo_step-rule": (lambda rule, g, match: pbpo_step("r", match), RuleError),
    "pbpo_step-match": (lambda rule, g, match: pbpo_step(rule, "m"), MorphismError),
    "reduce_bdd": (lambda rule, g, match: reduce_bdd("b"), BddError),
}


@pytest.mark.parametrize("entry", sorted(WRONG_TYPED))
def test_each_public_entry_names_a_wrong_typed_argument(entry, leaf_steps):
    """A public entry checks its arguments' types once, at entry, and raises
    the EngineError subclass of the argument's kind, not a raw
    AttributeError or TypeError."""
    rule, first, _, _, _ = leaf_steps
    call, error = WRONG_TYPED[entry]
    with pytest.raises(EngineError) as raised:
        call(rule, first.alpha.dom, first)
    assert type(raised.value) is error


# --------------------------------------------- matches rebuilt by hand


def rebuilt_matches(rule, match):
    """The match as found, rebuilt by hand, and rebuilt over a typing equal
    to ``rule.tL`` that is another object."""
    typing = GraphMorphism(rule.tL.dom, rule.tL.cod, dict(rule.tL.node_map),
                           dict(rule.tL.edge_map))
    assert typing == rule.tL and typing is not rule.tL
    return {"found": match,
            "by-hand": Match(match.m, match.alpha, rule.tL),
            "equal-typing": Match(match.m, match.alpha, typing)}


def test_step_at_a_rebuilt_match_gives_the_same_trace():
    rng = random.Random(71)
    for n in (2, 3):
        tree = build_decision_tree(random_truth_table(rng, [f"x{i}" for i in range(n)]))
        for rule in reduction_rules(tree.variables, tree.graph.lattice):
            for match in find_matches(rule, tree.graph)[:2]:
                steps = {kind: pbpo_step(rule, m, step=3)
                         for kind, m in rebuilt_matches(rule, match).items()}
                result, trace = steps["found"]
                for other_result, other_trace in steps.values():
                    assert other_result == result and other_trace == trace
                    assert list(other_result.node_labels.items()) == list(
                        result.node_labels.items())


def test_a_step_builds_no_pullback_or_pushout(monkeypatch, leaf_steps):
    """A step edits copies of the host's maps and decides its squares,
    the match square included, by counting: at a match as found, rebuilt
    by hand or typed by an equal copy of tL, it builds no limit."""
    rule, first, _, _, _ = leaf_steps
    calls = []

    def counting(build):
        def counted(diagram):
            calls.append(diagram)
            return build(diagram)
        return counted

    for module in (limits, rewriting):
        monkeypatch.setattr(module, "pullback", counting(limits.pullback))
        monkeypatch.setattr(module, "pushout", counting(limits.pushout))
    for match in rebuilt_matches(rule, first).values():
        pbpo_step(rule, match)
    assert calls == []


def test_step_rejects_a_hand_built_match_that_is_not_strong(leaf_steps):
    """A second 0-leaf typed onto the pattern leaf: the square commutes but
    is not a pullback, whichever typing object the match carries."""
    rule, first, _, _, _ = leaf_steps
    host = first.alpha.dom
    (other,) = [n for n in host.sorted_nodes if host.node_labels[n] == "0"
                and n not in first.m.node_map.values()]
    u = rule.tL.node_map["u"]
    into_u = [k for k, v in rule.Lp.src.items() if rule.Lp.tgt[k] == u and v != u]
    alpha = GraphMorphism(host, rule.Lp, {**first.alpha.node_map, other: u},
                          {**first.alpha.edge_map,
                           **dict.fromkeys(host.in_edges[other], into_u[0])})
    assert validate_morphism(alpha).ok
    for match in rebuilt_matches(rule, dataclasses.replace(first, alpha=alpha)).values():
        if match is first:
            continue
        with pytest.raises(StrongMatchError, match="not a pullback"):
            pbpo_step(rule, match)


def test_a_match_carried_to_another_typing_is_decided_again(leaf_steps):
    """A match found for ``LEAF_0`` handed to a copy of the rule whose
    ``tL`` swaps ``u`` and ``v``: its verdict was for the first typing, and
    against the second its square does not commute."""
    rule, first, _, _, _ = leaf_steps
    swapped = complete_rule(rule.L, GraphMorphism(rule.L, rule.Lp, {"u": "v", "v": "u"}, {}),
                            rule.lp, RhsSpec(merge_nodes=(("u", "v"),)), name="LEAF_0-swapped")
    assert swapped.L is rule.L and swapped.Lp is rule.Lp and swapped.tL != rule.tL
    with pytest.raises(StrongMatchError, match="alpha . m differs from tL"):
        pbpo_step(swapped, first)
