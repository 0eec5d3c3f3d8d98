import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbpoplus import (Cospan, GraphMorphism, LabeledGraph, MorphismError,
                      NonCommutingSquareError, Span, SquareError,
                      UnknownLabelError, compose, enumerate_mediators,
                      identity, is_isomorphic, is_pullback_square,
                      is_pushout_square, preimage, pullback,
                      pullback_mediators, pushout, pushout_mediators,
                      unit_lattice, validate_morphism)

from genhelpers import (add_isolated_node, corpus_lattices, diamond_lattice,
                        merge_two_nodes, pullback_candidates, pushout_candidates,
                        random_cospan, random_graph, random_morphism_into,
                        random_morphism_out_of, random_span,
                        reference_homomorphisms, reference_is_pullback,
                        reference_is_pushout, reference_pullback,
                        reference_pushout)


def g1(lat, label=None, ident="a", loop=False):
    label = label or lat.top
    edges = {"l": (ident, ident, label)} if loop else {}
    return LabeledGraph.build(lat, {ident: label}, edges)


# ------------------------------------------------------------- pushout


def test_pushout_identity_span(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1", "b": "0"}, {"e": ("a", "b", "1")})
    po = pushout(Span(identity(g), identity(g)))
    assert is_isomorphic(po.object, g) is not None


def test_pushout_empty_interface_is_disjoint_union(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1"})
    h = LabeledGraph.build(lat2, {"b": "x2"}, {"e": ("b", "b", "0")})
    empty = LabeledGraph.empty(lat2)
    po = pushout(Span(GraphMorphism(empty, g, {}, {}),
                      GraphMorphism(empty, h, {}, {})))
    assert len(po.object.nodes) == 2
    assert len(po.object.edges) == 1


def test_pushout_label_is_join(lat2):
    # one-point interface: bottom node glued to an x1 node
    apex = LabeledGraph.build(lat2, {"k": "bot"})
    left = GraphMorphism(apex, LabeledGraph.build(lat2, {"g": "bot"}), {"k": "g"}, {})
    right = GraphMorphism(apex, LabeledGraph.build(lat2, {"r": "x1"}), {"k": "r"}, {})
    po = pushout(Span(left, right))
    assert len(po.object.nodes) == 1
    (label,) = po.object.node_labels.values()
    assert label == "x1"


def test_pushout_glues_and_adds(unit):
    # interface one node; host has a loop on it; replacement adds a fresh
    # node with a connecting edge
    apex = LabeledGraph.build(unit, {"a": "*"})
    host = LabeledGraph.build(unit, {"a": "*"}, {"loop": ("a", "a", "*")})
    rhs = LabeledGraph.build(unit, {"a": "*", "c": "*"}, {"ac": ("a", "c", "*")})
    po = pushout(Span(GraphMorphism(apex, host, {"a": "a"}, {}),
                      GraphMorphism(apex, rhs, {"a": "a"}, {})))
    assert len(po.object.nodes) == 2
    assert len(po.object.edges) == 2
    expect = LabeledGraph.build(unit, {"x": "*", "y": "*"},
                                {"l": ("x", "x", "*"), "e": ("x", "y", "*")})
    assert is_isomorphic(po.object, expect) is not None
    # universal property against derived candidates
    rng = random.Random(0)
    span = Span(GraphMorphism(apex, host, {"a": "a"}, {}),
                GraphMorphism(apex, rhs, {"a": "a"}, {}))
    for cospan, _ in pushout_candidates(rng, span, po):
        assert len(pushout_mediators(po, cospan, limit=3)) == 1


def test_pushout_identifies_two_connected_nodes(unit):
    # merge two connected nodes and add a fresh one, applied at host = lhs
    lhs = LabeledGraph.build(unit, {"a": "*", "b": "*"}, {"ab": ("a", "b", "*")})
    rhs = LabeledGraph.build(unit, {"ab": "*", "c": "*"},
                             {"loop": ("ab", "ab", "*")})
    rho = GraphMorphism(lhs, rhs, {"a": "ab", "b": "ab"}, {"ab": "loop"})
    assert validate_morphism(rho).ok
    po = pushout(Span(identity(lhs), rho))
    assert is_isomorphic(po.object, rhs) is not None


def test_pushout_keeps_surrounding_context(unit):
    lhs = LabeledGraph.build(unit, {"a": "*", "b": "*"}, {"ab": ("a", "b", "*")})
    rhs = LabeledGraph.build(unit, {"ab": "*", "c": "*"},
                             {"loop": ("ab", "ab", "*")})
    rho = GraphMorphism(lhs, rhs, {"a": "ab", "b": "ab"}, {"ab": "loop"})
    host = LabeledGraph.build(unit, {"a": "*", "b": "*", "d": "*"},
                              {"ab": ("a", "b", "*"), "da": ("d", "a", "*")})
    m = GraphMorphism(lhs, host, {"a": "a", "b": "b"}, {"ab": "ab"})
    po = pushout(Span(m, rho))
    expect = LabeledGraph.build(
        unit, {"m": "*", "c": "*", "d": "*"},
        {"loop": ("m", "m", "*"), "dm": ("d", "m", "*")})
    assert is_isomorphic(po.object, expect) is not None


def test_pushout_invalid_span_rejected(lat2):
    g = LabeledGraph.build(lat2, {"a": "top"})
    h = LabeledGraph.build(lat2, {"b": "bot"})
    bad = GraphMorphism(g, h, {"a": "b"}, {})  # label decreases
    with pytest.raises(SquareError, match="invalid-span"):
        pushout(Span(bad, identity(g)))


def test_pushout_rejects_a_foreign_label_outside_the_apex_image(unit):
    empty = LabeledGraph.empty(unit)
    foot = LabeledGraph.build(unit, {"x": "weird"})
    span = Span(GraphMorphism(empty, foot, {}, {}), identity(empty))
    with pytest.raises(UnknownLabelError, match="'weird'"):
        pushout(span)


def test_pushout_agrees_with_reference():
    """The classes, ids, labels, legs and namings (member order included)
    are those of the reference, on spans with merged classes, loops,
    parallel edges and non-injective legs."""
    rng = random.Random(83)
    seen = {"merged": 0, "loops": 0, "parallel": 0, "non-injective": 0}
    for lat in corpus_lattices():
        for i in range(150):
            if i % 3:
                span = random_span(rng, lat)
            else:
                apex = random_graph(rng, lat, max_nodes=5, max_edges=8, prefix="s")
                span = Span(random_morphism_out_of(rng, apex, prefix="L"),
                            random_morphism_out_of(rng, apex, prefix="R"))
            got, want = pushout(span), reference_pushout(span)
            assert got.object == want.object
            for field in ("node_labels", "edge_labels", "src", "tgt"):
                assert (list(getattr(got.object, field).items())
                        == list(getattr(want.object, field).items()))
            assert list(got.node_naming.items()) == list(want.node_naming.items())
            assert list(got.edge_naming.items()) == list(want.edge_naming.items())
            assert got.left_leg == want.left_leg and got.right_leg == want.right_leg
            feet = (span.left.cod, span.right.cod)
            seen["merged"] += any(len(ms) > 2 for ms in want.node_naming.values())
            seen["loops"] += any(g.src[e] == g.tgt[e] for g in feet for e in g.edges)
            seen["parallel"] += any(len(es) > 1 for g in feet
                                    for es in g.edges_by_endpoints.values())
            seen["non-injective"] += not (span.left.is_injective()
                                          and span.right.is_injective())
    assert min(seen.values()) >= 20, seen


# ------------------------------------------------------------ pullback


def test_pullback_identity_cospan(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1", "b": "0"}, {"e": ("a", "b", "1")})
    pb = pullback(Cospan(identity(g), identity(g)))
    assert is_isomorphic(pb.object, g) is not None
    assert set(pb.object.nodes) == {"a|a", "b|b"}


def test_pullback_over_terminal_is_product(unit):
    a = LabeledGraph.build(unit, {"a0": "*", "a1": "*"},
                           {"ae": ("a0", "a1", "*")})
    b = LabeledGraph.build(unit, {"b0": "*", "b1": "*"},
                           {"be0": ("b0", "b1", "*"), "be1": ("b1", "b0", "*")})
    terminal = g1(unit, ident="t", loop=True)
    fa = GraphMorphism(a, terminal, {"a0": "t", "a1": "t"}, {"ae": "l"})
    fb = GraphMorphism(b, terminal, {n: "t" for n in b.nodes},
                       {e: "l" for e in b.edges})
    pb = pullback(Cospan(fa, fb))
    assert len(pb.object.nodes) == 4
    assert len(pb.object.edges) == 2


def test_pullback_label_is_meet(lat2):
    mid = LabeledGraph.build(lat2, {"t": "Var"})
    left = GraphMorphism(LabeledGraph.build(lat2, {"g": "x2"}), mid, {"g": "t"}, {})
    right = GraphMorphism(LabeledGraph.build(lat2, {"k": "bot"}), mid, {"k": "t"}, {})
    pb = pullback(Cospan(left, right))
    assert list(pb.object.node_labels.values()) == ["bot"]
    assert list(pb.object.nodes) == ["g|k"]


def test_pullback_duplicates_edges(unit):
    g = LabeledGraph.build(unit, {"x": "*", "y": "*"}, {"e": ("x", "y", "*")})
    one_loop = g1(unit, ident="t", loop=True)
    two_loops = LabeledGraph.build(unit, {"s": "*"},
                                   {"l1": ("s", "s", "*"), "l2": ("s", "s", "*")})
    alpha = GraphMorphism(g, one_loop, {"x": "t", "y": "t"}, {"e": "l"})
    rho = GraphMorphism(two_loops, one_loop, {"s": "t"}, {"l1": "l", "l2": "l"})
    pb = pullback(Cospan(alpha, rho))
    assert len(pb.object.nodes) == len(g.nodes)
    assert len(pb.object.edges) == 2 * len(g.edges)


def test_pullback_pair_naming(unit):
    g = LabeledGraph.build(unit, {"x": "*"})
    h = LabeledGraph.build(unit, {"y": "*"})
    t = LabeledGraph.build(unit, {"t": "*"})
    pb = pullback(Cospan(GraphMorphism(g, t, {"x": "t"}, {}),
                         GraphMorphism(h, t, {"y": "t"}, {})))
    assert set(pb.object.nodes) == {"x|y"}
    assert pb.node_naming["x|y"] == ("x", "y")


def test_pullback_rejects_colliding_pair_ids(unit):
    # ("a|b", "c") and ("a", "b|c") both render as "a|b|c"; four pairs
    # exist, so a three-node result would be wrong.
    d = LabeledGraph.build(unit, {"t": "*"})
    b = LabeledGraph.build(unit, {"a|b": "*", "a": "*"})
    c = LabeledGraph.build(unit, {"c": "*", "b|c": "*"})
    with pytest.raises(SquareError, match="id-collision"):
        pullback(Cospan(GraphMorphism(b, d, {"a|b": "t", "a": "t"}, {}),
                        GraphMorphism(c, d, {"c": "t", "b|c": "t"}, {})))


def test_square_checks_answer_on_pairs_that_render_alike(unit):
    """The pairs ("a|b", "c") and ("a", "b|c") would both be named "a|b|c",
    but deciding a square names nothing: a corner over all four pairs is the
    pullback, one over three of them is not."""
    d = LabeledGraph.build(unit, {"t": "*"})
    b = LabeledGraph.build(unit, {"a|b": "*", "a": "*"})
    c = LabeledGraph.build(unit, {"c": "*", "b|c": "*"})
    cospan = Cospan(GraphMorphism(b, d, {"a|b": "t", "a": "t"}, {}),
                    GraphMorphism(c, d, {"c": "t", "b|c": "t"}, {}))
    pairs = [(x, y) for x in b.sorted_nodes for y in c.sorted_nodes]
    for corner, is_pb in ((pairs, True), (pairs[1:], False)):
        apex = LabeledGraph.build(unit, {f"p{i}": "*" for i in range(len(corner))})
        span = Span(GraphMorphism(apex, b, {f"p{i}": x for i, (x, _) in enumerate(corner)}, {}),
                    GraphMorphism(apex, c, {f"p{i}": y for i, (_, y) in enumerate(corner)}, {}))
        assert is_pullback_square(cospan, span) is is_pb


def assert_same_limit(got, want):
    """Equal objects, legs and namings, dict insertion order included."""
    assert got.object == want.object
    for field in ("node_labels", "edge_labels", "src", "tgt"):
        assert (list(getattr(got.object, field).items())
                == list(getattr(want.object, field).items()))
    assert list(got.node_naming.items()) == list(want.node_naming.items())
    assert list(got.edge_naming.items()) == list(want.edge_naming.items())
    for got_leg, want_leg in ((got.left_leg, want.left_leg), (got.right_leg, want.right_leg)):
        assert got_leg == want_leg
        assert list(got_leg.node_map.items()) == list(want_leg.node_map.items())
        assert list(got_leg.edge_map.items()) == list(want_leg.edge_map.items())


def test_pullback_agrees_with_reference():
    """The pairs, ids, labels, legs and namings are those of the reference,
    in the same order, whichever foot is the smaller."""
    rng = random.Random(97)
    seen = {"left-smaller": 0, "right-smaller": 0, "fibres": 0}
    sizes = (1, 3, 8)
    for lat in corpus_lattices():
        for _ in range(150):
            target = random_graph(rng, lat, max_nodes=4, max_edges=6, prefix="d")
            left_size, right_size = rng.choice(sizes), rng.choice(sizes)
            cospan = Cospan(
                random_morphism_into(rng, target, left_size, 2 * left_size, prefix="u"),
                random_morphism_into(rng, target, right_size, 2 * right_size, prefix="v"))
            got = pullback(cospan)
            assert_same_limit(got, reference_pullback(cospan))
            b, c = cospan.left.dom, cospan.right.dom
            seen["left-smaller"] += len(b.nodes) < len(c.nodes) and len(got.object.nodes) > 1
            seen["right-smaller"] += len(c.nodes) < len(b.nodes) and len(got.object.nodes) > 1
            seen["fibres"] += len(got.object.nodes) > max(len(b.nodes), len(c.nodes))
    assert min(seen.values()) >= 30, seen


def test_pullback_collision_agrees_with_reference(unit):
    """Whichever foot is the larger, the first colliding pair and its
    message are those of the reference."""
    d = LabeledGraph.build(unit, {"t": "*"})
    for junk_b, junk_c in ((0, 0), (5, 0), (0, 5)):
        b = LabeledGraph.build(unit, {"a|b": "*", "a": "*",
                                      **{f"j{i}": "*" for i in range(junk_b)}})
        c = LabeledGraph.build(unit, {"c": "*", "b|c": "*",
                                      **{f"k{i}": "*" for i in range(junk_c)}})
        cospan = Cospan(GraphMorphism(b, d, dict.fromkeys(b.nodes, "t"), {}),
                        GraphMorphism(c, d, dict.fromkeys(c.nodes, "t"), {}))
        with pytest.raises(SquareError, match="id-collision") as want:
            reference_pullback(cospan)
        with pytest.raises(SquareError, match="id-collision") as got:
            pullback(cospan)
        assert str(got.value) == str(want.value)


# ------------------------------------------------------------ preimage


def test_preimage_of_isomorphism(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1", "b": "0"}, {"e": ("a", "b", "1")})
    pre = preimage(identity(g), identity(g))
    assert is_isomorphic(pre.graph, g) is not None
    assert validate_morphism(pre.inclusion).ok
    assert validate_morphism(pre.projection).ok


def test_preimage_selects_fiber(unit):
    x = LabeledGraph.build(unit, {"p": "*", "q": "*"}, {"pl": ("p", "p", "*")})
    t_dom = LabeledGraph.build(unit, {"s": "*"})
    t = GraphMorphism(t_dom, x, {"s": "p"}, {})
    big = LabeledGraph.build(unit, {"m1": "*", "m2": "*", "m3": "*"},
                             {"e": ("m1", "m2", "*")})
    f = GraphMorphism(big, x, {"m1": "p", "m2": "p", "m3": "q"}, {"e": "pl"})
    pre = preimage(t, f)
    assert set(pre.graph.nodes) == {"m1", "m2"}
    # the edge between the selected nodes maps into the selected part only
    # when the typed pattern has a matching edge; here it does not
    assert pre.graph.edges == frozenset()
    assert validate_morphism(pre.inclusion).ok


def test_preimage_requires_injective(unit):
    two = LabeledGraph.build(unit, {"a": "*", "b": "*"})
    one = LabeledGraph.build(unit, {"t": "*"})
    squash = GraphMorphism(two, one, {"a": "t", "b": "t"}, {})
    with pytest.raises(MorphismError, match="not-injective"):
        preimage(squash, identity(one))


# ------------------------------------------------------- square checks


def test_canonical_pullback_passes_square_check(lat2):
    rng = random.Random(3)
    for _ in range(10):
        cospan = random_cospan(rng, lat2)
        pb = pullback(cospan)
        assert is_pullback_square(cospan, Span(pb.left_leg, pb.right_leg))


def test_canonical_pushout_passes_square_check(lat2):
    rng = random.Random(4)
    for _ in range(10):
        span = random_span(rng, lat2)
        po = pushout(span)
        assert is_pushout_square(span, Cospan(po.left_leg, po.right_leg))


def test_collapsed_corner_commutes_but_is_not_pullback(unit):
    # adherence collapsing a larger host onto the typed pattern: the
    # candidate corner is the pattern, the true pullback is the whole host
    pattern = LabeledGraph.build(unit, {"p": "*"})
    lprime = LabeledGraph.build(unit, {"p": "*"})
    t_l = GraphMorphism(pattern, lprime, {"p": "p"}, {})
    host = LabeledGraph.build(unit, {"g1": "*", "g2": "*"})
    alpha = GraphMorphism(host, lprime, {"g1": "p", "g2": "p"}, {})
    m = GraphMorphism(pattern, host, {"p": "g1"}, {})
    assert compose(m, alpha).node_map == t_l.node_map  # commutes
    assert not is_pullback_square(Cospan(alpha, t_l),
                                  Span(m, identity(pattern)))


def test_noncommuting_square_raises(unit):
    a = LabeledGraph.build(unit, {"a1": "*", "a2": "*"})
    f = GraphMorphism(a, a, {"a1": "a2", "a2": "a1"}, {})  # swap
    with pytest.raises(NonCommutingSquareError):
        is_pullback_square(Cospan(identity(a), identity(a)), Span(f, identity(a)))


def test_pushout_candidate_with_free_node_fails(unit):
    # corner with one extra unconstrained node: mediators into the true
    # pushout are not unique
    apex = LabeledGraph.build(unit, {"a": "*"})
    b = LabeledGraph.build(unit, {"a": "*", "b": "*"})
    c = LabeledGraph.build(unit, {"a": "*"})
    span = Span(GraphMorphism(apex, b, {"a": "a"}, {}),
                GraphMorphism(apex, c, {"a": "a"}, {}))
    po = pushout(span)
    ext = add_isolated_node(po.object, unit.top, ident="free")
    candidate = Cospan(compose(po.left_leg, ext), compose(po.right_leg, ext))
    assert not is_pushout_square(span, candidate)
    # and seen from the candidate's side: its mediating morphism back to the
    # canonical pushout exists but not uniquely
    mediators = enumerate_mediators(
        ext.cod, po.object,
        pre=[(candidate.left, po.left_leg), (candidate.right, po.right_leg)])
    assert len(mediators) >= 2


def test_quotiented_pushout_candidate_fails(unit):
    apex = LabeledGraph.empty(unit)
    b = LabeledGraph.build(unit, {"b1": "*"})
    c = LabeledGraph.build(unit, {"c1": "*"})
    span = Span(GraphMorphism(apex, b, {}, {}), GraphMorphism(apex, c, {}, {}))
    po = pushout(span)  # two nodes
    merged = LabeledGraph.build(unit, {"m": "*"})
    candidate = Cospan(GraphMorphism(b, merged, {"b1": "m"}, {}),
                       GraphMorphism(c, merged, {"c1": "m"}, {}))
    assert not is_pushout_square(span, candidate)
    # no mediator back from the merged corner to the true pushout
    mediators = enumerate_mediators(
        merged, po.object,
        pre=[(candidate.left, po.left_leg), (candidate.right, po.right_leg)])
    assert mediators == []


def test_mediator_enumeration_counts(unit):
    rng = random.Random(11)
    lat = diamond_lattice()
    for _ in range(8):
        span = random_span(rng, lat)
        po = pushout(span)
        for cospan, is_po in pushout_candidates(rng, span, po):
            assert len(pushout_mediators(po, cospan, limit=3)) == 1
            assert is_pushout_square(span, cospan) == is_po
        cospan = random_cospan(rng, lat)
        pb = pullback(cospan)
        for span_cand, is_pb in pullback_candidates(rng, cospan, pb):
            assert len(pullback_mediators(pb, span_cand, limit=3)) == 1
            assert is_pullback_square(cospan, span_cand) == is_pb


def test_pullback_injectivity_stability(lat2):
    rng = random.Random(12)
    for _ in range(20):
        cospan = random_cospan(rng, lat2)
        pb = pullback(cospan)
        if cospan.right.is_injective():
            assert pb.left_leg.is_injective()
        if cospan.left.is_injective():
            assert pb.right_leg.is_injective()


# ------------------------------------------- validation and mediators


def test_square_checks_reject_invalid_legs(unit):
    x = LabeledGraph.build(unit, {"a": "*"})
    bad = GraphMorphism(x, x, {"a": "zzz"}, {})
    with pytest.raises(SquareError, match="invalid-square"):
        is_pullback_square(Cospan(identity(x), identity(x)), Span(bad, identity(x)))
    with pytest.raises(SquareError, match="invalid-square"):
        is_pushout_square(Span(identity(x), identity(x)), Cospan(bad, identity(x)))
    with pytest.raises(SquareError, match="invalid-equation"):
        enumerate_mediators(x, x, pre=[(bad, identity(x))])


def test_square_checks_name_misaligned_legs(unit):
    x = LabeledGraph.build(unit, {"a": "*"})
    y = LabeledGraph.build(unit, {"b": "*"})
    to_y = GraphMorphism(x, y, {"a": "b"}, {})
    # The span's legs end in y, the cospan's start from x.
    with pytest.raises(SquareError, match="invalid-square: .*line up with the cospan"):
        is_pullback_square(Cospan(identity(x), identity(x)), Span(to_y, to_y))
    with pytest.raises(SquareError, match="invalid-square: .*line up with the span"):
        is_pushout_square(Span(to_y, to_y), Cospan(identity(x), identity(x)))


def test_pullback_square_rejects_a_corner_that_is_too_large(unit):
    # Both nodes of the corner sit over the one node of the pullback of
    # (id, id): the forced mediator is onto but not injective.
    x = LabeledGraph.build(unit, {"x": "*"})
    two = LabeledGraph.build(unit, {"a1": "*", "a2": "*"})
    p = GraphMorphism(two, x, {"a1": "x", "a2": "x"}, {})
    assert not is_pullback_square(Cospan(identity(x), identity(x)), Span(p, p))


def filtered_reference(dom, cod, pre=(), post=()):
    """Every morphism ``dom -> cod`` by brute force, kept when it satisfies
    the equations; in the lexicographic order of the assignment."""
    def same(f, g):
        return f.node_map == g.node_map and f.edge_map == g.edge_map

    return [x for x in reference_homomorphisms(dom, cod, False)
            if all(same(compose(p, x), q) for p, q in pre)
            and all(same(compose(x, p), q) for p, q in post)]


def test_mediators_agree_with_filtered_reference():
    rng = random.Random(61)
    lattices = corpus_lattices()
    problems = []
    for i in range(80):
        lat = lattices[i % len(lattices)]
        span = random_span(rng, lat)
        po = pushout(span)
        for cand, _ in pushout_candidates(rng, span, po):
            problems.append((po.object, cand.left.cod,
                             [(po.left_leg, cand.left), (po.right_leg, cand.right)], []))
            # Back from the candidate corner: often several mediators.
            problems.append((cand.left.cod, po.object,
                             [(cand.left, po.left_leg), (cand.right, po.right_leg)], []))
        cospan = random_cospan(rng, lat)
        pb = pullback(cospan)
        for cand, _ in pullback_candidates(rng, cospan, pb):
            problems.append((cand.left.dom, pb.object, [],
                             [(pb.left_leg, cand.left), (pb.right_leg, cand.right)]))
            problems.append((pb.object, cand.left.dom, [],
                             [(cand.left, pb.left_leg), (cand.right, pb.right_leg)]))
    checked = several = 0
    for dom, cod, pre, post in problems:
        if len(cod.nodes) ** len(dom.nodes) * max(1, len(cod.edges)) ** len(dom.edges) > 20000:
            continue  # beyond the unpruned reference
        expected = filtered_reference(dom, cod, pre, post)
        for limit in (None, 1, 2, 3):
            got = enumerate_mediators(dom, cod, pre=pre, post=post, limit=limit)
            assert ([(f.node_map, f.edge_map) for f in got]
                    == [(f.node_map, f.edge_map) for f in expected[:limit]])
        checked += 1
        several += len(expected) >= 2
    assert checked >= 1000 and several >= 20, (checked, several)
    # The wrappers hand their equations through unchanged.
    span = random_span(rng, lattices[0])
    po = pushout(span)
    for cand, _ in pushout_candidates(rng, span, po):
        assert pushout_mediators(po, cand, limit=2) == enumerate_mediators(
            po.object, cand.left.cod,
            pre=[(po.left_leg, cand.left), (po.right_leg, cand.right)], limit=2)


def test_mediators_with_unsatisfiable_pins(unit):
    dom = LabeledGraph.build(unit, {"a": "*"})
    cod = LabeledGraph.build(unit, {"b1": "*", "b2": "*"})
    outside = LabeledGraph.build(unit, {"z": "*"})
    to_b1 = GraphMorphism(dom, cod, {"a": "b1"}, {})
    to_b2 = GraphMorphism(dom, cod, {"a": "b2"}, {})
    to_z = GraphMorphism(dom, outside, {"a": "z"}, {})
    assert len(enumerate_mediators(dom, cod)) == 2
    assert enumerate_mediators(dom, cod, pre=[(identity(dom), to_z)]) == []
    assert enumerate_mediators(
        dom, cod, pre=[(identity(dom), to_b1), (identity(dom), to_b2)]) == []


def test_mediator_into_a_large_pullback():
    """Every element of the apex is pinned to one fibre, so the mediator
    search does not recurse once per element."""
    unit = unit_lattice()
    ids = [f"b{i:03d}" for i in range(800)]
    chain = LabeledGraph.build(unit, dict.fromkeys(ids, "*"),
                               {f"e{i:03d}": (ids[i], ids[i + 1], "*")
                                for i in range(len(ids) - 1)})
    loop = LabeledGraph.build(unit, {"t": "*"}, {"l": ("t", "t", "*")})
    point = LabeledGraph.build(unit, {"s": "*"}, {"k": ("s", "s", "*")})
    to_loop = GraphMorphism(chain, loop, dict.fromkeys(chain.nodes, "t"),
                            dict.fromkeys(chain.edges, "l"))
    pb = pullback(Cospan(to_loop, GraphMorphism(point, loop, {"s": "t"}, {"k": "l"})))
    assert len(pb.object.nodes) + len(pb.object.edges) >= 1100
    (mediator,) = pullback_mediators(pb, Span(pb.left_leg, pb.right_leg), limit=1)
    assert mediator.node_map == identity(pb.object).node_map
    assert mediator.edge_map == identity(pb.object).edge_map


def with_a_second_copy(span: Span, rng, drop_one: bool = False) -> Span | None:
    """The span with its corner enlarged by a copy of one of its nodes, over
    the same two images: it commutes but is too large to be a pullback.
    With ``drop_one`` an isolated node other than the copied one is dropped
    too, so the corner has the pullback's size but repeats a pair.  ``None``
    when there is no node to copy or to drop."""
    apex = span.left.dom
    if not apex.nodes:
        return None
    n = rng.choice(apex.sorted_nodes)
    isolated = [x for x in apex.sorted_nodes if x != n and not apex.incident_edges[x]]
    if drop_one and not isolated:
        return None
    gone = rng.choice(isolated) if drop_one else None
    corner = LabeledGraph.build(
        apex.lattice, {**{x: lab for x, lab in apex.node_labels.items() if x != gone},
                       "copy": apex.node_labels[n]},
        {e: (apex.src[e], apex.tgt[e], apex.edge_labels[e]) for e in apex.edges})
    return Span(*(GraphMorphism(corner, f.cod, {x: f.node_map[n if x == "copy" else x]
                                                for x in corner.nodes}, f.edge_map)
                  for f in (span.left, span.right)))


def merged_and_extended(result, rng) -> Cospan | None:
    """The canonical pushout with two nodes merged and an isolated node
    added: as many nodes as the pushout, but one hit twice and one not at
    all.  ``None`` with fewer than two nodes."""
    h = result.object
    if len(h.nodes) < 2:
        return None
    keep, drop = sorted(rng.sample(h.sorted_nodes, 2))
    merge = merge_two_nodes(h, keep, drop)
    q = compose(merge, add_isolated_node(merge.cod, h.lattice.top or h.lattice.sorted_elements()[0]))
    return Cospan(compose(result.left_leg, q), compose(result.right_leg, q))


@given(st.integers(0, 2 ** 32 - 1))
@settings(deadline=None)
def test_square_verdicts_agree_with_the_mediator_reference(seed):
    """On random commuting squares, the canonical limit and corners that
    are renamed, too large, too small, relabelled, or of the limit's size
    but with an element repeated and one missing, the counting verdicts of
    ``is_pullback_square`` and ``is_pushout_square`` are those of the
    exhaustive mediator search."""
    rng = random.Random(seed)
    lat = rng.choice(corpus_lattices())
    cospan = random_cospan(rng, lat)
    spans = [span for span, _ in pullback_candidates(rng, cospan, pullback(cospan))]
    spans += [with_a_second_copy(spans[0], rng), with_a_second_copy(spans[0], rng, True)]
    for span in filter(None, spans):
        assert is_pullback_square(cospan, span) == reference_is_pullback(cospan, span)
    span = random_span(rng, lat)
    po = pushout(span)
    cospans = [cospan for cospan, _ in pushout_candidates(rng, span, po)]
    cospans.append(merged_and_extended(po, rng))
    for cospan in filter(None, cospans):
        assert is_pushout_square(span, cospan) == reference_is_pushout(span, cospan)
