import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbpoplus import (EngineError, GraphMorphism, LabeledGraph, LatticeError,
                      MorphismError, Report, bdd_lattice, build_decision_tree,
                      compose, disjoint_union, enumerate_homomorphisms,
                      identity, is_isomorphic, unit_lattice, validate_graph,
                      validate_morphism)

from genhelpers import (corpus_lattices, diamond_lattice, permute_ids,
                        random_graph, random_morphism_into,
                        random_truth_table, reference_validate_morphism)


def chain(lat, n, label=None):
    label = label or lat.top
    nodes = {f"c{i}": label for i in range(n)}
    edges = {f"ce{i}": (f"c{i}", f"c{i+1}", label) for i in range(n - 1)}
    return LabeledGraph.build(lat, nodes, edges)


def test_empty_graph_valid(unit):
    assert validate_graph(LabeledGraph.empty(unit)).ok


def test_dangling_endpoint_reported(unit):
    g = LabeledGraph(lattice=unit, nodes=frozenset({"a"}), edges=frozenset({"e"}),
                     src={"e": "a"}, tgt={"e": "ghost"},
                     node_labels={"a": "*"}, edge_labels={"e": "*"})
    assert "dangling-endpoint" in validate_graph(g).codes()


def test_foreign_label_reported(unit):
    g = LabeledGraph.build(unit, {"a": "weird"})
    assert "label-domain" in validate_graph(g).codes()


def test_identity_morphism_valid(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1", "b": "0"}, {"e": ("a", "b", "1")})
    assert validate_morphism(identity(g)).ok


def test_commutation_violation(unit):
    g = LabeledGraph.build(unit, {"a": "*", "b": "*"}, {"e": ("a", "b", "*")})
    h = LabeledGraph.build(unit, {"x": "*", "y": "*"}, {"f": ("x", "y", "*")})
    bad = GraphMorphism(g, h, {"a": "y", "b": "x"}, {"e": "f"})
    codes = validate_morphism(bad).codes()
    assert "source-commutation" in codes and "target-commutation" in codes


def test_label_condition_direction(lat2, unit):
    low = LabeledGraph.build(lat2, {"a": "x2"})
    high = LabeledGraph.build(lat2, {"b": "Var"})
    bottom = LabeledGraph.build(lat2, {"c": "bot"})
    assert validate_morphism(GraphMorphism(low, high, {"a": "b"}, {})).ok
    report = validate_morphism(GraphMorphism(low, bottom, {"a": "c"}, {}))
    assert "label-condition" in report.codes()
    # A label outside the lattice, in the domain or the codomain, on a node
    # or an edge, is reported, not raised.
    plain = LabeledGraph.build(unit, {"b": "*"}, {"f": ("b", "b", "*")})
    for node, edge in (("weird", "*"), ("*", "weird")):
        weird = LabeledGraph.build(unit, {"a": node}, {"e": ("a", "a", edge)})
        for f in (GraphMorphism(weird, plain, {"a": "b"}, {"e": "f"}),
                  GraphMorphism(plain, weird, {"b": "a"}, {"f": "e"})):
            assert validate_morphism(f).codes() == {"label-domain"}, f


def corrupted(rng, f):
    """Copies of the valid morphism ``f``, each with one kind of defect."""
    dom, cod = f.dom, f.cod
    lat = dom.lattice
    out = []

    def changed(g, **changes):
        fields = dict(nodes=g.nodes, edges=g.edges, src=g.src, tgt=g.tgt,
                      node_labels=g.node_labels, edge_labels=g.edge_labels)
        fields.update(changes)
        return LabeledGraph(lattice=lat, **fields)

    def add(kind, node_map=None, edge_map=None, new_dom=None, new_cod=None):
        out.append((kind, GraphMorphism(new_dom or dom, new_cod or cod,
                                        f.node_map if node_map is None else node_map,
                                        f.edge_map if edge_map is None else edge_map)))

    if dom.nodes:
        n = rng.choice(dom.sorted_nodes)
        v = f.node_map[n]
        add("missing-image", node_map={k: x for k, x in f.node_map.items() if k != n})
        add("outside-cod", node_map={**f.node_map, n: "zzz"})
        if cod.node_labels[v] != lat.top:
            add("label-down", new_dom=changed(dom, node_labels={**dom.node_labels, n: lat.top}))
        add("foreign-label", new_dom=changed(dom, node_labels={**dom.node_labels, n: "weird"}))
        add("foreign-label", new_cod=changed(cod, node_labels={**cod.node_labels, v: "weird"}))
        # A stray id that has a label in cod but is not one of its nodes.
        add("outside-cod", node_map={**f.node_map, n: "stray"},
            new_cod=changed(cod, node_labels={**cod.node_labels, "stray": lat.top}))
    if dom.edges:
        e = rng.choice(dom.sorted_edges)
        img = f.edge_map[e]
        add("missing-image", edge_map={k: x for k, x in f.edge_map.items() if k != e})
        add("outside-cod", edge_map={**f.edge_map, e: "zzz"})
        add("outside-cod", edge_map={**f.edge_map, e: "stray"}, new_cod=changed(
            cod, src={**cod.src, "stray": cod.src[img]}, tgt={**cod.tgt, "stray": cod.tgt[img]},
            edge_labels={**cod.edge_labels, "stray": lat.top}))
        elsewhere = [c for c in cod.sorted_edges
                     if (cod.src[c], cod.tgt[c]) != (cod.src[img], cod.tgt[img])]
        if elsewhere:
            add("broken-endpoint", edge_map={**f.edge_map, e: rng.choice(elsewhere)})
        if cod.edge_labels[img] != lat.top:
            add("label-down", new_dom=changed(dom, edge_labels={**dom.edge_labels, e: lat.top}))
        add("dangling-dom-edge", new_dom=changed(dom, src={**dom.src, e: "ghost"}))
    if cod.nodes:
        add("extra-key", node_map={**f.node_map, "extra": rng.choice(cod.sorted_nodes)})
    if cod.edges:
        add("extra-key", edge_map={**f.edge_map, "extra": rng.choice(cod.sorted_edges)})
    return out


def outcome(validate, f):
    try:
        return validate(f)
    except EngineError as exc:
        return type(exc), str(exc)


def test_validate_morphism_agrees_with_detailed_reference():
    """The one-pass check answers exactly as the element-by-element loop,
    on valid morphisms, on each kind of defect and on arbitrary maps."""
    rng = random.Random(29)
    tried: dict[str, int] = {}
    flagged: dict[str, int] = {}
    for lat in corpus_lattices():
        for _ in range(120):
            cod = random_graph(rng, lat, max_nodes=5, max_edges=7, prefix="d")
            f = random_morphism_into(rng, cod, max_nodes=5, max_edges=7)
            other = random_graph(rng, lat, max_nodes=4, max_edges=5, prefix="a")
            arbitrary = GraphMorphism(
                other, cod,
                {n: rng.choice(cod.sorted_nodes) for n in other.nodes} if cod.nodes else {},
                {e: rng.choice(cod.sorted_edges) for e in other.edges} if cod.edges else {})
            for kind, g in [("valid", f), ("arbitrary", arbitrary)] + corrupted(rng, f):
                got = outcome(validate_morphism, g)
                assert got == outcome(reference_validate_morphism, g), (kind, g)
                tried[kind] = tried.get(kind, 0) + 1
                flagged[kind] = flagged.get(kind, 0) + (not isinstance(got, Report) or not got.ok)
    assert flagged["valid"] == 0
    for kind in ("missing-image", "outside-cod", "broken-endpoint", "label-down",
                 "foreign-label", "extra-key", "arbitrary"):
        assert flagged[kind] >= 20, (kind, tried, flagged)
    assert tried["dangling-dom-edge"] >= 20


def test_compose_identity_neutral(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1"}, {})
    h = LabeledGraph.build(lat2, {"b": "Var"}, {})
    f = GraphMorphism(g, h, {"a": "b"}, {})
    assert compose(identity(g), f) == f
    assert compose(f, identity(h)) == f


def test_compose_domain_mismatch(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1"})
    h = LabeledGraph.build(lat2, {"b": "Var"})
    f = GraphMorphism(g, h, {"a": "b"}, {})
    with pytest.raises(MorphismError, match="domain-mismatch"):
        compose(f, f)


def test_composition_of_injectives_is_injective(unit):
    g = chain(unit, 3)
    h = chain(unit, 4)
    k = chain(unit, 5)
    f1 = GraphMorphism(g, h, {f"c{i}": f"c{i}" for i in range(3)},
                       {f"ce{i}": f"ce{i}" for i in range(2)})
    f2 = GraphMorphism(h, k, {f"c{i}": f"c{i+1}" for i in range(4)},
                       {f"ce{i}": f"ce{i+1}" for i in range(3)})
    assert validate_morphism(f1).ok and validate_morphism(f2).ok
    composed = compose(f1, f2)
    assert validate_morphism(composed).ok
    assert composed.is_injective()


def test_valid_composition_of_valid_morphisms(lat2):
    rng = random.Random(5)
    for _ in range(25):
        a = random_graph(rng, lat2, max_nodes=3, max_edges=3)
        from genhelpers import random_morphism_out_of

        f = random_morphism_out_of(rng, a)
        g = random_morphism_out_of(rng, f.cod, prefix="z")
        assert validate_morphism(f).ok
        assert validate_morphism(g).ok
        assert validate_morphism(compose(f, g)).ok


def test_isomorphic_permuted_ids(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1", "b": "0"},
                           {"e1": ("a", "b", "0"), "e2": ("a", "b", "1")})
    h = g.rename({"a": "z", "b": "w"}, {"e1": "k1", "e2": "k2"})
    wit = is_isomorphic(g, h)
    assert wit is not None
    assert validate_morphism(wit).ok
    assert wit.is_injective()


def test_not_isomorphic_reversed_edge(unit):
    g = LabeledGraph.build(unit, {"a": "*", "b": "*"}, {"e": ("a", "b", "*")})
    h = LabeledGraph.build(unit, {"a": "*", "b": "*"}, {"e": ("b", "a", "*")})
    # directed graphs: a 2-node chain and its reverse are isomorphic by swapping
    assert is_isomorphic(g, h) is not None
    # but a loop and a non-loop are not
    loop = LabeledGraph.build(unit, {"a": "*"}, {"e": ("a", "a", "*")})
    noloop = LabeledGraph.build(unit, {"a": "*"}, {})
    assert is_isomorphic(loop, noloop) is None


def test_not_isomorphic_on_labels(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1"})
    h = LabeledGraph.build(lat2, {"a": "x2"})
    assert is_isomorphic(g, h) is None


def test_isomorphic_needs_shared_lattice(lat2, unit):
    with pytest.raises(LatticeError):
        is_isomorphic(LabeledGraph.empty(lat2), LabeledGraph.empty(unit))


def test_multigraph_iso_counts_parallels(unit):
    g = LabeledGraph.build(unit, {"a": "*", "b": "*"},
                           {"e1": ("a", "b", "*"), "e2": ("a", "b", "*")})
    h = LabeledGraph.build(unit, {"a": "*", "b": "*"},
                           {"e1": ("a", "b", "*"), "e2": ("b", "a", "*")})
    assert is_isomorphic(g, h) is None


def test_disjoint_union_counts(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1"}, {})
    h = LabeledGraph.build(lat2, {"a": "x2"}, {})
    du = disjoint_union(g, h)
    assert len(du.graph.nodes) == 2 and len(du.graph.edges) == 0
    assert validate_morphism(du.left).ok and validate_morphism(du.right).ok
    assert du.left.is_injective() and du.right.is_injective()


def test_disjoint_union_with_empty_isomorphic(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1", "b": "0"}, {"e": ("a", "b", "1")})
    du = disjoint_union(g, LabeledGraph.empty(lat2))
    assert is_isomorphic(du.graph, g) is not None


@st.composite
def small_graphs(draw):
    lat = diamond_lattice()
    labels = lat.sorted_elements()
    n = draw(st.integers(min_value=0, max_value=6))
    ids = [f"n{i}" for i in range(n)]
    nodes = {i: draw(st.sampled_from(labels)) for i in ids}
    edges = {}
    if ids:
        m = draw(st.integers(min_value=0, max_value=6))
        for j in range(m):
            edges[f"e{j}"] = (draw(st.sampled_from(ids)),
                              draw(st.sampled_from(ids)),
                              draw(st.sampled_from(labels)))
    return LabeledGraph.build(lat, nodes, edges)


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_iso_reflexive_and_rename_invariant(g, rng):
    assert is_isomorphic(g, g) is not None
    node_map = {n: f"r_{n}" for n in g.nodes}
    edge_map = {e: f"r_{e}" for e in g.edges}
    h = g.rename(node_map, edge_map)
    wit = is_isomorphic(g, h)
    assert wit is not None
    # symmetry: invert the witness
    inv = GraphMorphism(h, g,
                        {v: k for k, v in wit.node_map.items()},
                        {v: k for k, v in wit.edge_map.items()})
    assert validate_morphism(inv).ok


@given(small_graphs(), small_graphs())
@settings(max_examples=40, deadline=None)
def test_iso_symmetric(g, h):
    forward = is_isomorphic(g, h)
    backward = is_isomorphic(h, g)
    assert (forward is None) == (backward is None)


def test_iso_transitive_via_compose(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1", "b": "x2"}, {"e": ("a", "b", "0")})
    h = g.rename({"a": "m", "b": "n"}, {"e": "f"})
    k = h.rename({"m": "u", "n": "v"}, {"f": "w"})
    f1 = is_isomorphic(g, h)
    f2 = is_isomorphic(h, k)
    f3 = compose(f1, f2)
    assert validate_morphism(f3).ok
    assert f3.node_image() == k.nodes


def assert_isomorphism(f):
    """``f`` is a valid morphism, bijective on nodes and edges, that keeps
    every label exactly."""
    g, h = f.dom, f.cod
    assert validate_morphism(f).ok
    assert f.node_image() == h.nodes and len(f.node_map) == len(g.nodes) == len(h.nodes)
    assert f.edge_image() == h.edges and len(f.edge_map) == len(g.edges) == len(h.edges)
    assert all(g.node_labels[a] == h.node_labels[b] for a, b in f.node_map.items())
    assert all(g.edge_labels[a] == h.edge_labels[b] for a, b in f.edge_map.items())


def test_isomorphism_of_a_1023_node_tree():
    """A full 9-variable decision tree against a copy with shuffled ids: the
    search runs on an explicit stack, so its depth is not bounded by the
    recursion limit."""
    rng = random.Random(9)
    g = build_decision_tree(random_truth_table(rng, [f"x{i}" for i in range(9)])).graph
    assert len(g.nodes) == 1023
    wit = is_isomorphic(g, permute_ids(rng, g).cod)
    assert wit is not None
    assert_isomorphism(wit)


def relabelled(rng, g):
    """A copy of ``g`` with one element's label changed, or ``None``."""
    choices = [(ids, labels) for ids, labels in ((g.sorted_nodes, g.node_labels),
                                                 (g.sorted_edges, g.edge_labels)) if ids]
    if not choices or len(g.lattice.elements) < 2:
        return None
    ids, labels = rng.choice(choices)
    x = rng.choice(ids)
    changed = dict(labels)
    changed[x] = rng.choice([lab for lab in g.lattice.sorted_elements() if lab != labels[x]])
    field = "node_labels" if labels is g.node_labels else "edge_labels"
    return dataclasses.replace(g, **{field: changed})


def rewired(rng, g):
    """A copy of ``g`` with one edge given a random new source, or ``g``."""
    if not g.edges:
        return g
    e = rng.choice(g.sorted_edges)
    return dataclasses.replace(g, src={**g.src, e: rng.choice(g.sorted_nodes)})


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_isomorphism_agrees_with_injective_homomorphisms(g, rng):
    """Against a shuffled copy of ``g``, possibly with one edge rewired, the
    verdict is that of brute force: some injective homomorphism between
    graphs of equal size keeps every label exactly.  A copy with one label
    changed is never isomorphic."""
    h = permute_ids(rng, rewired(rng, g)).cod
    wit = is_isomorphic(g, h)
    assert (wit is not None) == any(
        all(g.node_labels[a] == h.node_labels[b] for a, b in f.node_map.items())
        and all(g.edge_labels[a] == h.edge_labels[b] for a, b in f.edge_map.items())
        for f in enumerate_homomorphisms(g, h, injective=True))
    if wit is not None:
        assert_isomorphism(wit)
    other = relabelled(rng, h)
    if other is not None:
        assert is_isomorphic(g, other) is None
