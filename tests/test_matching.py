import gc
import random
import weakref

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbpoplus import (Cospan, GraphError, GraphMorphism, LabeledGraph, Match, MorphismError,
                      RhsSpec, Span, TruthTable, build_decision_tree,
                      check_strong_match, complete_rule, compose,
                      enumerate_homomorphisms, find_matches, identity, is_isomorphic,
                      is_pullback_square, leaf_rule, merge_iso_rule, pbpo_step,
                      reduce_bdd, reduction_rules, unit_lattice,
                      validate_morphism, verify_match_square, verify_trace)
from pbpoplus.matching import (_adherences_for, _hom_search, _occurs_at, _search_plan,
                               iter_matches)

from genhelpers import (corpus_lattices, count_adherence_searches, naive_find_matches,
                        perturbed_host, random_graph,
                        random_host_with_match, random_rule, random_sink_rule,
                        random_truth_table, reference_homomorphisms, searched_adherences)


def two_color_type(unit):
    return LabeledGraph.build(
        unit, {"a": "*", "b": "*"},
        {"ab": ("a", "b", "*"), "ba": ("b", "a", "*")})


def is_two_colorable(g):
    """Direct check: BFS 2-coloring of the underlying undirected graph."""
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


def test_single_node_hom_count(unit):
    dot = LabeledGraph.build(unit, {"p": "*"})
    host = LabeledGraph.build(unit, {f"n{i}": "*" for i in range(5)})
    assert len(enumerate_homomorphisms(dot, host)) == 5


def test_edge_into_three_cycle(unit):
    edge = LabeledGraph.build(unit, {"a": "*", "b": "*"}, {"e": ("a", "b", "*")})
    cycle = LabeledGraph.build(
        unit, {"c0": "*", "c1": "*", "c2": "*"},
        {"e0": ("c0", "c1", "*"), "e1": ("c1", "c2", "*"), "e2": ("c2", "c0", "*")})
    homs = enumerate_homomorphisms(edge, cycle)
    assert len(homs) == 3
    for f in homs:
        assert validate_morphism(f).ok


def test_hom_enumeration_is_sorted_and_exhaustive(unit):
    rng = random.Random(9)
    for _ in range(10):
        g = random_graph(rng, unit, max_nodes=3, max_edges=3)
        h = random_graph(rng, unit, max_nodes=3, max_edges=3)
        homs = enumerate_homomorphisms(g, h)
        keys = [tuple(sorted(f.node_map.items())) + tuple(sorted(f.edge_map.items()))
                for f in homs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        # brute force over all node maps, then all edge maps
        nodes, edges = list(g.sorted_nodes), list(g.sorted_edges)
        count = 0
        import itertools
        for imgs in itertools.product(list(h.sorted_nodes), repeat=len(nodes)):
            nm = dict(zip(nodes, imgs))
            pools = []
            for e in edges:
                pools.append([c for c in h.sorted_edges
                              if h.src[c] == nm[g.src[e]] and h.tgt[c] == nm[g.tgt[e]]])
            for combo in itertools.product(*pools):
                count += 1
        assert count == len(homs)


def test_hom_existence_matches_bipartiteness(unit):
    rng = random.Random(10)
    t = two_color_type(unit)
    for _ in range(60):
        g = random_graph(rng, unit, max_nodes=6, max_edges=7)
        homs = enumerate_homomorphisms(g, t)
        assert bool(homs) == is_two_colorable(g)


def test_injective_flag(unit):
    two = LabeledGraph.build(unit, {"a": "*", "b": "*"})
    one = LabeledGraph.build(unit, {"x": "*"})
    assert len(enumerate_homomorphisms(two, one)) == 1
    assert enumerate_homomorphisms(two, one, injective=True) == []


def test_strong_match_identity_typing(unit):
    pattern = LabeledGraph.build(unit, {"p": "*", "q": "*"}, {"e": ("p", "q", "*")})
    host = pattern.rename({"p": "g1", "q": "g2"}, {"e": "ge"})
    alpha = GraphMorphism(host, pattern, {"g1": "p", "g2": "q"}, {"ge": "e"})
    match = check_strong_match(identity(pattern), alpha)
    assert match is not None
    assert match.m.node_map == {"p": "g1", "q": "g2"}
    assert verify_match_square(match)


def test_strong_match_rejects_collapse(unit):
    pattern = LabeledGraph.build(unit, {"p": "*"})
    lprime = LabeledGraph.build(unit, {"p": "*", "c": "*"})
    t_l = GraphMorphism(pattern, lprime, {"p": "p"}, {})
    host = LabeledGraph.build(unit, {"x": "*", "y": "*"})
    good = GraphMorphism(host, lprime, {"x": "p", "y": "c"}, {})
    bad = GraphMorphism(host, lprime, {"x": "p", "y": "p"}, {})
    match = check_strong_match(t_l, good)
    assert match is not None and match.m.node_map == {"p": "x"}
    assert check_strong_match(t_l, bad) is None


def test_strong_match_requires_injective_typing(unit):
    two = LabeledGraph.build(unit, {"a": "*", "b": "*"})
    one = LabeledGraph.build(unit, {"t": "*"})
    squash = GraphMorphism(two, one, {"a": "t", "b": "t"}, {})
    with pytest.raises(MorphismError, match="not-injective"):
        check_strong_match(squash, identity(one))


def test_strong_match_typing_mismatch(unit, lat2):
    p_unit = LabeledGraph.build(unit, {"a": "*"})
    p_bdd = LabeledGraph.build(lat2, {"a": "top"})
    with pytest.raises(MorphismError, match="typing-mismatch"):
        check_strong_match(identity(p_unit), identity(p_bdd))


def test_find_matches_variable_replacement(replace_rule, lat2):
    host = LabeledGraph.build(lat2, {"g": "x2"})
    matches = find_matches(replace_rule, host)
    assert len(matches) == 1
    assert matches[0].m.node_map == {"a": "g"}
    host_top = LabeledGraph.build(lat2, {"g": "top"})
    assert find_matches(replace_rule, host_top) == []


def test_find_matches_agrees_with_naive(lat2):
    rng = random.Random(21)
    agreements = 0
    for _ in range(15):
        rule = random_rule(rng, lat2)
        host, _ = random_host_with_match(rng, rule)
        fast = find_matches(rule, host)
        slow = naive_find_matches(rule, host)
        assert [m.sort_key() for m in fast] == [m.sort_key() for m in slow]
        agreements += len(fast)
    assert agreements >= 15  # every constructed host has at least its match


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_find_matches_agrees_with_naive_where_no_context_node_fits(seed):
    """Hosts with extra isolated nodes of any label, some of which no
    context node of the rule can take: matches that miss such a node, or
    every match when there are more of them than pattern nodes, are ruled
    out before the adherence search, as the naive route rules them out."""
    rng = random.Random(seed)
    lat = rng.choice(corpus_lattices())
    rule = random_rule(rng, lat)
    host, _ = random_host_with_match(rng, rule)
    labels = {**host.node_labels, **{f"x{i}": rng.choice(lat.sorted_elements())
                                     for i in range(rng.randint(0, 3))}}
    host = LabeledGraph.build(lat, labels, {e: (host.src[e], host.tgt[e], host.edge_labels[e])
                                            for e in host.edges})
    fast = find_matches(rule, host)
    assert [m.sort_key() for m in fast] == [m.sort_key() for m in naive_find_matches(rule, host)]


def test_every_match_passes_square_and_injectivity(lat2):
    rng = random.Random(22)
    for _ in range(10):
        rule = random_rule(rng, lat2)
        host, planted = random_host_with_match(rng, rule)
        matches = find_matches(rule, host)
        keys = [m.sort_key() for m in matches]
        assert planted.sort_key() in keys
        for match in matches:
            assert compose(match.m, match.alpha).node_map == rule.tL.node_map
            assert compose(match.m, match.alpha).edge_map == rule.tL.edge_map
            assert match.m.is_injective()
            assert is_pullback_square(Cospan(match.alpha, rule.tL),
                                      Span(match.m, identity(rule.L)))


def test_distinct_adherences_over_one_match_are_distinct(unit):
    # same m, two ways to type the context node: two matches
    from pbpoplus import RhsSpec, complete_rule

    pattern = LabeledGraph.build(unit, {"a": "*"})
    lprime = LabeledGraph.build(unit, {"a": "*", "c1": "*", "c2": "*"})
    t_l = GraphMorphism(pattern, lprime, {"a": "a"}, {})
    rule = complete_rule(pattern, t_l, identity(lprime), RhsSpec())
    host = LabeledGraph.build(unit, {"x": "*", "y": "*"})
    matches = find_matches(rule, host)
    by_m = {}
    for match in matches:
        by_m.setdefault(tuple(sorted(match.m.node_map.items())), []).append(match)
    assert len(matches) == 4  # two m's, two adherences each
    assert all(len(v) == 2 for v in by_m.values())


def test_one_point_identity_typing_degenerates_to_iso_search(unit):
    pattern = LabeledGraph.build(unit, {"p": "*", "q": "*"}, {"e": ("p", "q", "*")})
    from pbpoplus import RhsSpec, complete_rule

    rule = complete_rule(pattern, identity(pattern), identity(pattern), RhsSpec())
    same = pattern.rename({"p": "u", "q": "v"}, {"e": "w"})
    assert len(find_matches(rule, same)) == 1
    bigger = LabeledGraph.build(unit, {"p": "*", "q": "*", "r": "*"},
                                {"e": ("p", "q", "*")})
    assert find_matches(rule, bigger) == []


def assignments(morphisms):
    return [(f.node_map, f.edge_map) for f in morphisms]


def test_hom_search_agrees_with_unanchored_reference():
    rng = random.Random(31)
    lattices = corpus_lattices()
    found = 0
    for i in range(600):
        lat = lattices[i % len(lattices)]
        g = random_graph(rng, lat, max_nodes=4, max_edges=5, prefix="g")
        h = random_graph(rng, lat, max_nodes=5, max_edges=9, prefix="h")
        for injective in (False, True):
            expected = assignments(reference_homomorphisms(g, h, injective))
            assert assignments(enumerate_homomorphisms(g, h, injective)) == expected
            # The lexicographic search must produce that order unsorted.
            assert assignments(_hom_search(g, h, injective)) == expected
            found += len(expected)
    assert found > 1000


def test_find_matches_agrees_with_naive_on_bdd_hosts():
    rng = random.Random(41)
    variables = ["p", "q", "r"]
    found = 0
    for _ in range(3):
        tree = build_decision_tree(random_truth_table(rng, variables))
        _, result = reduce_bdd(tree)
        # Two thirds in, where the exponential naive route stays affordable.
        host = result.traces[2 * len(result.traces) // 3].g_in
        for rule in reduction_rules(variables, tree.graph.lattice):
            fast = find_matches(rule, host)
            slow = naive_find_matches(rule, host)
            assert [m.sort_key() for m in fast] == [m.sort_key() for m in slow]
            found += len(fast)
    assert found > 0


# ------------------------------------------------ forced pass and depth


def pooled_reference(g, h, injective, node_pools, edge_pools):
    """Every morphism of the unpruned reference whose images lie in the
    pools, in the lexicographic order of the assignment."""
    return [f for f in reference_homomorphisms(g, h, injective)
            if all(f.node_map[n] in pool for n, pool in node_pools.items())
            and all(f.edge_map[e] in pool for e, pool in edge_pools.items())]


def assert_search_agrees(g, h, node_pools, edge_pools, keep_plan=False):
    """``_hom_search`` under the pools equals the filtered reference, in its
    lexicographic order, for both injectivity modes; returns the number of
    results per mode."""
    counts = []
    for injective in (False, True):
        expected = assignments(pooled_reference(g, h, injective, node_pools, edge_pools))
        got = assignments(_hom_search(g, h, injective, node_pools, edge_pools, keep_plan))
        assert got == expected
        counts.append(len(expected))
    return counts


def random_pools(rng, g, h, pinned):
    """Pools for ``_hom_search(g, h, ...)``: each element gets one image
    (with ``pinned``, that of a random homomorphism if there is one) with
    probability 0.7, a random subset with 0.15, and no pool otherwise."""
    homs = reference_homomorphisms(g, h)
    pin = rng.choice(homs) if homs and pinned else None
    node_pools, edge_pools = {}, {}
    for ids, pools, cod_ids, image in (
            (g.sorted_nodes, node_pools, h.sorted_nodes, pin and pin.node_map),
            (g.sorted_edges, edge_pools, h.sorted_edges, pin and pin.edge_map)):
        for x in ids:
            r = rng.random()
            if r < 0.7 and cod_ids:
                pools[x] = frozenset([image[x] if image else rng.choice(cod_ids)])
            elif r < 0.85:
                pools[x] = frozenset(rng.sample(cod_ids, rng.randint(0, len(cod_ids))))
    return node_pools, edge_pools


def test_forced_pass_agrees_with_filtered_reference():
    """Pools that pin most elements to one image, taken from a real
    homomorphism or drawn at random, on all corpus lattices."""
    rng = random.Random(52)
    lattices = corpus_lattices()
    seen = {"mostly-forced": 0, "found": 0, "injective-cut": 0}
    for i in range(600):
        lat = lattices[i % len(lattices)]
        g = random_graph(rng, lat, max_nodes=4, max_edges=5, prefix="g")
        h = random_graph(rng, lat, max_nodes=4, max_edges=8, prefix="h")
        node_pools, edge_pools = random_pools(rng, g, h, pinned=bool(i % 2))
        loose, strict = assert_search_agrees(g, h, node_pools, edge_pools)
        forced = sum(len(pool) == 1 for pool in (*node_pools.values(), *edge_pools.values()))
        seen["mostly-forced"] += 2 * forced > len(g.nodes) + len(g.edges) > 1
        seen["found"] += loose > 0
        seen["injective-cut"] += strict < loose
    assert min(seen.values()) >= 50, seen


@given(st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(deadline=None)
def test_search_order_agrees_with_pooled_reference_on_parallel_edges(seed, pinned):
    """Open nodes, then open edges, come off one stack in the lexicographic
    order of the reference, in both injectivity modes.  Patterns of one or
    two nodes with up to four edges, and hosts of up to three nodes with up
    to eight, often have parallel edges on both sides, so open edges have
    several targets and compete for them under injectivity."""
    rng = random.Random(seed)
    lat = rng.choice(corpus_lattices())
    g = random_graph(rng, lat, max_nodes=2, max_edges=4, prefix="g", min_nodes=1)
    h = random_graph(rng, lat, max_nodes=3, max_edges=8, prefix="h", min_nodes=1)
    assert_search_agrees(g, h, *random_pools(rng, g, h, pinned))


def join_pattern(rng, lat, shape):
    """A pattern of three to five nodes, mostly labelled bottom: the shape of
    ``MERGE-ISO`` (``g0`` the shared 1-child, ``g1`` and ``g2`` the merged
    nodes, ``g3`` the shared 0-child), of ``ELIM-VACUOUS`` (``g0`` with two
    edges of distinct labels to ``g1``), or random; the first two get extra
    nodes and edges at random."""
    labels = lat.sorted_elements()
    one, zero = rng.sample(labels, 2)
    size = {"merge": rng.randint(4, 5), "elim": rng.randint(3, 5), "random": rng.randint(3, 5)}
    nodes = {f"g{i}": lat.bottom if rng.random() < 0.6 else rng.choice(labels)
             for i in range(size[shape])}
    edges = {"merge": {"ge0": ("g1", "g0", one), "ge1": ("g1", "g3", zero),
                       "ge2": ("g2", "g0", one), "ge3": ("g2", "g3", zero)},
             "elim": {"ge0": ("g0", "g1", zero), "ge1": ("g0", "g1", one)},
             "random": {}}[shape]
    ids = sorted(nodes)
    extra = rng.randint(1, 4) if shape == "random" else rng.randint(0, 2)
    for j in range(len(edges), len(edges) + extra):
        edges[f"ge{j}"] = (rng.choice(ids), rng.choice(ids),
                           lat.bottom if rng.random() < 0.3 else rng.choice(labels))
    return LabeledGraph.build(lat, nodes, edges)


def hub_host(rng, lat, size):
    """A host of ``size`` nodes with a hub of in-degree eight or more and
    pairs of parallel edges with distinct labels."""
    labels = lat.sorted_elements()
    ids = [f"h{i}" for i in range(size)]
    nodes = {n: lat.bottom if rng.random() < 0.2 else rng.choice(labels) for n in ids}
    hub = rng.choice(ids)
    ends = [(rng.choice(ids), hub) for _ in range(rng.randint(8, 10))]
    ends += [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 5))]
    edges = {}
    for s, t in ends:
        pair = rng.sample(labels, 2) if rng.random() < 0.5 else [rng.choice(labels)]
        for label in pair:
            edges[f"he{len(edges)}"] = (s, t, label)
    return LabeledGraph.build(lat, nodes, edges)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["merge", "elim", "random"]))
@settings(deadline=None)
def test_search_order_agrees_with_pooled_reference_on_hub_hosts(seed, shape):
    """The join removes no result and reorders none: the search equals the
    unpruned reference, in order and in both injectivity modes, on patterns
    of three to five nodes shaped like the BDD rules or random, into hosts
    with a hub of in-degree eight or more.  One pattern object is searched
    without pools, then under pools that pin most elements, each time
    keeping its plan, so its kept plans must be told apart by their open
    nodes."""
    rng = random.Random(seed)
    lat = rng.choice(corpus_lattices()[1:])  # with two edge labels at least
    g = join_pattern(rng, lat, shape)
    h = hub_host(rng, lat, rng.randint(3, {3: 7, 4: 6, 5: 5}[len(g.nodes)]))
    assert_search_agrees(g, h, {}, {}, keep_plan=True)
    assert_search_agrees(g, h, *random_pools(rng, g, h, pinned=rng.random() < 0.5),
                         keep_plan=True)


def test_forced_pass_edge_cases(unit):
    h = LabeledGraph.build(unit, {"x": "*", "y": "*"},
                           {"f1": ("x", "y", "*"), "f2": ("x", "y", "*"),
                            "back": ("y", "x", "*")})
    pinned = {"a": frozenset({"x"}), "b": frozenset({"y"})}

    # Two forced nodes collide: only a non-injective result.
    two = LabeledGraph.build(unit, {"a": "*", "b": "*"})
    assert assert_search_agrees(two, h, {"a": frozenset({"x"}), "b": frozenset({"x"})},
                                {}) == [1, 0]

    # A forced edge and an open edge compete for f1; under injectivity the
    # open edge gets f2, whether it comes before or after the forced one.
    for forced, open_edge in (("e1", "e2"), ("e2", "e1")):
        g = LabeledGraph.build(unit, {"a": "*", "b": "*"},
                               {"e1": ("a", "b", "*"), "e2": ("a", "b", "*")})
        pools = {forced: frozenset({"f1"})}
        assert assert_search_agrees(g, h, pinned, pools) == [2, 1]
        (only,) = _hom_search(g, h, True, pinned, pools)
        assert only.edge_map == {forced: "f1", open_edge: "f2"}

    # An edge between forced nodes with no target ends the search.
    g = LabeledGraph.build(unit, {"a": "*", "b": "*"}, {"e": ("b", "a", "*"),
                                                        "d": ("a", "b", "*")})
    assert assert_search_agrees(g, h, pinned, {"e": frozenset({"f1"})}) == [0, 0]

    # Two forced edges on one target: fine unless injective.
    assert assert_search_agrees(g, h, pinned, {"d": frozenset({"f1"})}) == [1, 1]
    g = LabeledGraph.build(unit, {"a": "*", "b": "*"},
                           {"e1": ("a", "b", "*"), "e2": ("a", "b", "*")})
    both = {"e1": frozenset({"f1"}), "e2": frozenset({"f1"})}
    assert assert_search_agrees(g, h, pinned, both) == [1, 0]


def test_leaf_match_and_step_on_an_eight_variable_tree():
    """Every host element outside the pattern is forced, so neither the
    search nor the step depends on the recursion limit."""
    variables = [f"x{i}" for i in range(8)]
    tree = build_decision_tree(TruthTable.from_bits("0110" * 64, variables))
    assert len(tree.graph.nodes) == 511 and len(tree.graph.edges) == 510
    rule = leaf_rule("0", tree.graph.lattice)
    match = next(iter_matches(rule, tree.graph))
    assert match.m.node_map == {"u": "d00000000", "v": "d00000011"}
    result, trace = pbpo_step(rule, match)
    assert len(result.nodes) == 510 and len(result.edges) == 510
    assert verify_trace(trace).ok


def test_first_match_with_two_context_nodes_on_a_large_host(unit):
    """Every non-pattern node has two adherence candidates, so the search
    backtracks over a stack as deep as the host."""
    pattern = LabeledGraph.build(unit, {"a": "*"})
    lprime = LabeledGraph.build(unit, {"a": "*", "c1": "*", "c2": "*"})
    rule = complete_rule(pattern, GraphMorphism(pattern, lprime, {"a": "a"}, {}),
                         identity(lprime), RhsSpec())
    ids = [f"h{i:04d}" for i in range(1500)]
    host = LabeledGraph.build(unit, dict.fromkeys(ids, "*"))
    match = next(iter_matches(rule, host))
    assert match.m.node_map == {"a": ids[0]}
    assert match.alpha.node_map == {ids[0]: "a", **dict.fromkeys(ids[1:], "c1")}


def test_enumerate_homomorphisms_rejects_a_malformed_graph(unit):
    dot = LabeledGraph.build(unit, {"a": "*"})
    dangling = LabeledGraph.build(unit, {"a": "*"}, {"e": ("a", "gone", "*")})
    for g, h in ((dot, dangling), (dangling, dot)):
        with pytest.raises(GraphError, match="invalid-graph.*dangling-endpoint"):
            enumerate_homomorphisms(g, h)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_rooted_query_is_exact(seed):
    """The rooted query answers yes exactly when some injective
    homomorphism has a seed in its image; ids outside the host are no
    seeds."""
    rng = random.Random(seed)
    lat = rng.choice(corpus_lattices())
    pattern = random_graph(rng, lat, max_nodes=3, max_edges=3, prefix="p")
    host = random_graph(rng, lat, max_nodes=5, max_edges=7, prefix="h")
    nodes = {n for n in host.nodes if rng.random() < 0.3} | {"gone"}
    edges = {e for e in host.edges if rng.random() < 0.3} | {"gone"}
    expected = any(nodes.intersection(f.node_map.values())
                   or edges.intersection(f.edge_map.values())
                   for f in reference_homomorphisms(pattern, host, injective=True))
    assert _occurs_at(pattern, host, nodes, edges) is expected


# ------------------------------------------ adherences at a sink, built


def sink_instance(seed):
    """A random rule with a sink and a host built around one of its matches,
    perturbed where the closed form decides element by element."""
    rng = random.Random(seed)
    rule = random_sink_rule(rng, rng.choice(corpus_lattices()))
    host, match = random_host_with_match(rng, rule)
    return rule, perturbed_host(rng, rule, host, match)


def adherence_maps(alphas):
    return [(a.dom, a.cod, list(a.node_map.items()), list(a.edge_map.items()))
            for a in alphas]


@given(st.integers(0, 2 ** 32 - 1))
@settings(deadline=None)
def test_sink_adherences_are_what_the_search_finds(seed):
    """At every occurrence of the pattern, the adherences built in closed
    form, or left to the search, are the pooled search's: the same maps,
    keyed in the same order, in the same order.  Each is a valid morphism,
    which the verdict :func:`iter_matches` stores on a match takes as given."""
    rule, host = sink_instance(seed)
    assert rule._sink is not None
    for m in _hom_search(rule.L, host, True):
        built = list(_adherences_for(m, rule, host))
        assert all(validate_morphism(alpha).ok for alpha in built)
        assert adherence_maps(built) == adherence_maps(searched_adherences(m, rule, host))


@given(st.integers(0, 2 ** 32 - 1))
@settings(deadline=None)
def test_find_matches_agrees_with_naive_on_sink_rules(seed):
    """Instances whose morphisms into ``L'`` could number more than 20,000
    are skipped: the naive route enumerates every one of them, and a few
    hosts with many edges at parallel context edges would take minutes."""
    rule, host = sink_instance(seed)
    widest = max(map(len, rule.Lp.edges_by_endpoints.values()))
    assume(len(rule.Lp.nodes) ** len(host.nodes) * widest ** len(host.edges) <= 20_000)
    assert ([m.sort_key() for m in find_matches(rule, host)]
            == [m.sort_key() for m in naive_find_matches(rule, host)])


def test_sink_instances_reach_every_outcome_of_the_closed_form(monkeypatch):
    """The properties above see every outcome of the closed form often: one
    adherence, none, and an occurrence left to the search (a label not
    below the sink's, or an edge with several candidates)."""
    searched = count_adherence_searches(monkeypatch)
    outcomes = {"one": 0, "none": 0, "search": 0}
    for seed in range(300):
        rule, host = sink_instance(seed)
        for m in _hom_search(rule.L, host, True):
            before = len(searched)
            found = list(_adherences_for(m, rule, host))
            if len(searched) > before:
                outcomes["search"] += 1
            else:
                outcomes[("none", "one")[len(found)]] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_a_rule_without_a_sink_is_searched(keep_rule, replace_rule, lat2):
    """No context node, a context node without a loop, or a second loop:
    the context part is no sink and every adherence is searched."""
    assert keep_rule._sink is None and replace_rule._sink is None
    pattern = LabeledGraph.build(lat2, {"a": "bot"})
    context = LabeledGraph.build(lat2, {"a": "top", "c": "top"},
                                 {"l1": ("c", "c", "top"), "l2": ("c", "c", "Bool")})
    two_loops = complete_rule(pattern, GraphMorphism(pattern, context, {"a": "a"}, {}),
                              identity(context))
    assert two_loops._sink is None
    host = LabeledGraph.build(lat2, {"g": "x1", "h": "0"}, {"hh": ("h", "h", "1")})
    m = GraphMorphism(pattern, host, {"a": "g"}, {})
    assert (adherence_maps(_adherences_for(m, two_loops, host))
            == adherence_maps(searched_adherences(m, two_loops, host)))
    assert len(searched_adherences(m, two_loops, host)) == 2


@given(st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(deadline=None)
def test_find_matches_come_in_sort_key_order(seed, sink):
    """``find_matches`` returns the matches as ``iter_matches`` yields them,
    which is already ascending :meth:`Match.sort_key` order: on random sink
    rules (adherences built) and rules without a sink (pooled search)."""
    if sink:
        rule, host = sink_instance(seed)
    else:
        rng = random.Random(seed)
        lat = rng.choice(corpus_lattices())
        rule = random_rule(rng, lat)
        while rule._sink is not None:
            rule = random_rule(rng, lat)
        host = random_host_with_match(rng, rule)[0]
    matches = find_matches(rule, host)
    assert matches == sorted(matches, key=Match.sort_key)


@given(st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(deadline=None)
def test_found_matches_decided_afresh_keep_their_verdict_and_step(seed, sink):
    """The verdict :func:`iter_matches` stores on a match is the one a fresh
    :class:`Match` of the same morphisms is decided to have, and a step at
    either gives the same trace: on random sink rules and on random rules
    without a sink, whose adherences are searched and must be valid too."""
    if sink:
        rule, host = sink_instance(seed)
    else:
        rng = random.Random(seed)
        lat = rng.choice(corpus_lattices())
        rule = random_rule(rng, lat)
        while rule._sink is not None:
            rule = random_rule(rng, lat)
        host = random_host_with_match(rng, rule)[0]
        for m in _hom_search(rule.L, host, True):
            assert all(validate_morphism(alpha).ok for alpha in _adherences_for(m, rule, host))
    for found in iter_matches(rule, host):
        fresh = Match(found.m, found.alpha, found.typing)
        assert "_report" not in fresh.__dict__ and fresh._report.ok
        assert pbpo_step(rule, fresh, step=1) == pbpo_step(rule, found, step=1)


def test_search_plans_live_on_the_pattern_and_hold_no_host(lat2, monkeypatch):
    """A search from a pattern keeps its plan there, one per tuple of open
    nodes: the scans and rooted queries of a BDD rule.  A search from a
    host keeps none on it: neither the pooled adherence search nor the
    isomorphism search.  Nothing kept holds a host alive."""
    tree = build_decision_tree(TruthTable.from_bits("0110100110010110", ["p", "q", "r", "s"]))
    rule = merge_iso_rule("s", tree.graph.lattice)
    pattern = LabeledGraph.build(lat2, {"a": "bot"})
    context = LabeledGraph.build(lat2, {"a": "top", "c": "top"},
                                 {"l1": ("c", "c", "top"), "l2": ("c", "c", "Bool")})
    no_sink = complete_rule(pattern, GraphMorphism(pattern, context, {"a": "a"}, {}),
                            identity(context))
    host = LabeledGraph(**{f: getattr(tree.graph, f) for f in (
        "lattice", "nodes", "edges", "src", "tgt", "node_labels", "edge_labels")})
    other = LabeledGraph.build(lat2, {"g": "x1", "h": "0"}, {"hh": ("h", "h", "1")})
    refs = [weakref.ref(host), weakref.ref(other)]
    s_node = next(n for n in host.sorted_nodes if host.node_labels[n] == "s")
    searched = count_adherence_searches(monkeypatch)
    for _ in range(2):
        find_matches(rule, host)
        assert not _occurs_at(rule.L, host, [s_node], ())  # pinned under each pattern node
        assert is_isomorphic(host, host.rename({}, {})) is not None
        assert len(find_matches(no_sink, other)) == 2
    assert any(g is other for g in searched)
    searched.clear()
    assert "_plans" not in host.__dict__ and "_plans" not in other.__dict__
    nodes = rule.L.sorted_nodes
    assert set(rule.L._plans) == {nodes, *(tuple(n for n in nodes if n != p) for p in nodes)}
    assert all(plan == _search_plan(rule.L, rest) for rest, plan in rule.L._plans.items())
    del host, other
    gc.collect()
    assert all(ref() is None for ref in refs)
