"""Seeded random generators for graphs, (co)spans, rules, and matches.

Everything takes an explicit ``random.Random`` so test corpora are
reproducible.  Candidate builders derive competing cospans/spans from a
computed limit; they are the raw material for the universal-property
checks."""

from __future__ import annotations

import random
import sys

from pbpoplus import (Cospan, GraphMorphism, LabeledGraph, LabelLattice,
                      LatticeError, LimitResult, Match, Report, RhsSpec, Span,
                      SquareError, UnknownLabelError, bdd_lattice,
                      NormalizeResult, check_strong_match, complete_rule,
                      compose, enumerate_homomorphisms, identity, pbpo_step,
                      preimage, pullback_mediators, pushout_mediators,
                      unit_lattice)
from pbpoplus.graph import _require_valid
from pbpoplus.matching import _hom_search, iter_matches
from pbpoplus.limits import _UnionFind, pair_id, pullback, pushout


def diamond_lattice() -> LabelLattice:
    return LabelLattice.from_order(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
        top="top", bottom="bot")


def corpus_lattices() -> list[LabelLattice]:
    return [unit_lattice(), diamond_lattice(), bdd_lattice(["p", "q"])]


def labels_leq(lat: LabelLattice, upper: str) -> list[str]:
    return [x for x in lat.sorted_elements() if lat.leq(x, upper)]


def labels_geq(lat: LabelLattice, lower: str) -> list[str]:
    return [x for x in lat.sorted_elements() if lat.leq(lower, x)]


def random_graph(rng: random.Random, lat: LabelLattice, max_nodes: int = 4,
                 max_edges: int = 6, prefix: str = "n",
                 min_nodes: int = 0) -> LabeledGraph:
    labels = lat.sorted_elements()
    n = rng.randint(min_nodes, max_nodes)
    nodes = {f"{prefix}{i}": rng.choice(labels) for i in range(n)}
    edges = {}
    if n:
        ids = sorted(nodes)
        for j in range(rng.randint(0, max_edges)):
            edges[f"{prefix}e{j}"] = (rng.choice(ids), rng.choice(ids),
                                      rng.choice(labels))
    return LabeledGraph.build(lat, nodes, edges)


def random_morphism_into(rng: random.Random, cod: LabeledGraph,
                         max_nodes: int = 4, max_edges: int = 6,
                         prefix: str = "a") -> GraphMorphism:
    """A fresh graph together with a valid morphism into ``cod``."""
    lat = cod.lattice
    cod_nodes = list(cod.sorted_nodes)
    nodes: dict[str, str] = {}
    node_map: dict[str, str] = {}
    if cod_nodes:
        for i in range(rng.randint(0, max_nodes)):
            ident = f"{prefix}{i}"
            target = rng.choice(cod_nodes)
            node_map[ident] = target
            nodes[ident] = rng.choice(labels_leq(lat, cod.node_labels[target]))
    edges: dict[str, tuple[str, str, str]] = {}
    edge_map: dict[str, str] = {}
    cod_edges = list(cod.sorted_edges)
    if nodes and cod_edges:
        for j in range(rng.randint(0, max_edges)):
            target = rng.choice(cod_edges)
            s_opts = sorted(v for v, t in node_map.items() if t == cod.src[target])
            t_opts = sorted(v for v, t in node_map.items() if t == cod.tgt[target])
            if not s_opts or not t_opts:
                continue
            ident = f"{prefix}e{j}"
            edges[ident] = (rng.choice(s_opts), rng.choice(t_opts),
                            rng.choice(labels_leq(lat, cod.edge_labels[target])))
            edge_map[ident] = target
    dom = LabeledGraph.build(lat, nodes, edges)
    return GraphMorphism(dom, cod, node_map, edge_map)


def random_morphism_out_of(rng: random.Random, dom: LabeledGraph,
                           prefix: str = "b", junk: int = 2) -> GraphMorphism:
    """A valid morphism out of ``dom``: merge some nodes, raise some labels,
    merge parallel edges, and append unrelated elements."""
    lat = dom.lattice
    labels = lat.sorted_elements()
    node_map: dict[str, str] = {}
    groups: dict[str, list[str]] = {}
    reps: list[str] = []
    for n in dom.sorted_nodes:
        if reps and rng.random() < 0.3:
            rep = rng.choice(reps)
        else:
            rep = f"{prefix}{len(reps)}"
            reps.append(rep)
            groups[rep] = []
        groups[rep].append(n)
        node_map[n] = rep
    nodes = {}
    for rep, members in groups.items():
        base = lat.join(dom.node_labels[x] for x in members)
        nodes[rep] = rng.choice(labels_geq(lat, base))
    buckets: dict[tuple[str, str, int], list[str]] = {}
    for e in dom.sorted_edges:
        key = (node_map[dom.src[e]], node_map[dom.tgt[e]], rng.randint(0, 1))
        buckets.setdefault(key, []).append(e)
    edges: dict[str, tuple[str, str, str]] = {}
    edge_map: dict[str, str] = {}
    for i, (key, members) in enumerate(sorted(buckets.items())):
        ident = f"{prefix}e{i}"
        base = lat.join(dom.edge_labels[x] for x in members)
        edges[ident] = (key[0], key[1], rng.choice(labels_geq(lat, base)))
        for m in members:
            edge_map[m] = ident
    for k in range(rng.randint(0, junk)):
        nodes[f"{prefix}x{k}"] = rng.choice(labels)
    all_nodes = sorted(nodes)
    if all_nodes:
        for k in range(rng.randint(0, junk)):
            edges[f"{prefix}xe{k}"] = (rng.choice(all_nodes), rng.choice(all_nodes),
                                       rng.choice(labels))
    cod = LabeledGraph.build(lat, nodes, edges)
    return GraphMorphism(dom, cod, node_map, edge_map)


def random_span(rng: random.Random, lat: LabelLattice) -> Span:
    apex = random_graph(rng, lat, max_nodes=2, max_edges=3, prefix="s")
    return Span(random_morphism_out_of(rng, apex, prefix="L"),
                random_morphism_out_of(rng, apex, prefix="R"))


def random_cospan(rng: random.Random, lat: LabelLattice) -> Cospan:
    target = random_graph(rng, lat, max_nodes=4, max_edges=6, prefix="d")
    return Cospan(random_morphism_into(rng, target, prefix="u"),
                  random_morphism_into(rng, target, prefix="v"))


# -------------------------------------------------- candidate builders


def rename_iso(g: LabeledGraph, suffix: str = "~") -> GraphMorphism:
    node_map = {n: n + suffix for n in g.nodes}
    edge_map = {e: e + suffix for e in g.edges}
    return GraphMorphism(g, g.rename(node_map, edge_map), node_map, edge_map)


def merge_two_nodes(g: LabeledGraph, keep: str, drop: str) -> GraphMorphism:
    """Quotient morphism merging ``drop`` into ``keep`` (label join)."""
    lat = g.lattice
    nodes = {n: g.node_labels[n] for n in g.nodes if n != drop}
    nodes[keep] = lat.join([g.node_labels[keep], g.node_labels[drop]])
    remap = lambda n: keep if n == drop else n
    edges = {e: (remap(g.src[e]), remap(g.tgt[e]), g.edge_labels[e])
             for e in g.edges}
    cod = LabeledGraph.build(lat, nodes, edges)
    return GraphMorphism(g, cod, {n: remap(n) for n in g.nodes},
                         {e: e for e in g.edges})


def add_isolated_node(g: LabeledGraph, label: str, ident: str = "extra") -> GraphMorphism:
    nodes = {n: g.node_labels[n] for n in g.nodes}
    nodes[ident] = label
    edges = {e: (g.src[e], g.tgt[e], g.edge_labels[e]) for e in g.edges}
    cod = LabeledGraph.build(g.lattice, nodes, edges)
    return GraphMorphism(g, cod, {n: n for n in g.nodes}, {e: e for e in g.edges})


def add_extra_edge(g: LabeledGraph, src: str, tgt: str, label: str,
                   ident: str = "extraedge") -> GraphMorphism:
    nodes = {n: g.node_labels[n] for n in g.nodes}
    edges = {e: (g.src[e], g.tgt[e], g.edge_labels[e]) for e in g.edges}
    edges[ident] = (src, tgt, label)
    cod = LabeledGraph.build(g.lattice, nodes, edges)
    return GraphMorphism(g, cod, {n: n for n in g.nodes}, {e: e for e in g.edges})


def bump_one_label(g: LabeledGraph, rng: random.Random) -> GraphMorphism | None:
    """Identity-shaped morphism into a copy with one strictly raised label."""
    lat = g.lattice
    strict = []
    for n in g.sorted_nodes:
        ups = [x for x in labels_geq(lat, g.node_labels[n]) if x != g.node_labels[n]]
        if ups:
            strict.append(("node", n, ups))
    for e in g.sorted_edges:
        ups = [x for x in labels_geq(lat, g.edge_labels[e]) if x != g.edge_labels[e]]
        if ups:
            strict.append(("edge", e, ups))
    if not strict:
        return None
    kind, ident, ups = rng.choice(strict)
    nodes = {n: g.node_labels[n] for n in g.nodes}
    edges = {e: (g.src[e], g.tgt[e], g.edge_labels[e]) for e in g.edges}
    if kind == "node":
        nodes[ident] = rng.choice(ups)
    else:
        s, t, _ = edges[ident]
        edges[ident] = (s, t, rng.choice(ups))
    cod = LabeledGraph.build(lat, nodes, edges)
    return GraphMorphism(g, cod, {n: n for n in g.nodes}, {e: e for e in g.edges})


def pushout_candidates(rng: random.Random, span: Span, result) -> list[tuple[Cospan, bool]]:
    """Competing cospans for a computed pushout, tagged with whether the
    candidate corner itself is a pushout of the span."""
    h = result.object
    out: list[tuple[Cospan, bool]] = [
        (Cospan(result.left_leg, result.right_leg), True),
    ]
    iso = rename_iso(h)
    out.append((Cospan(compose(result.left_leg, iso),
                       compose(result.right_leg, iso)), True))
    nodes = list(h.sorted_nodes)
    if len(nodes) >= 2:
        keep, drop = rng.sample(nodes, 2)
        q = merge_two_nodes(h, min(keep, drop), max(keep, drop))
        out.append((Cospan(compose(result.left_leg, q),
                           compose(result.right_leg, q)), False))
    ext = add_isolated_node(h, h.lattice.top or h.lattice.sorted_elements()[0])
    out.append((Cospan(compose(result.left_leg, ext),
                       compose(result.right_leg, ext)), False))
    if nodes:
        lab = h.lattice.top or h.lattice.sorted_elements()[-1]
        ext2 = add_extra_edge(h, rng.choice(nodes), rng.choice(nodes), lab)
        out.append((Cospan(compose(result.left_leg, ext2),
                           compose(result.right_leg, ext2)), False))
    bump = bump_one_label(h, rng)
    if bump is not None:
        out.append((Cospan(compose(result.left_leg, bump),
                           compose(result.right_leg, bump)), False))
    return out


def restrict_to_subgraph(g: LabeledGraph, keep_nodes: set[str],
                         keep_edges: set[str]) -> GraphMorphism:
    nodes = {n: g.node_labels[n] for n in keep_nodes}
    edges = {e: (g.src[e], g.tgt[e], g.edge_labels[e]) for e in keep_edges}
    sub = LabeledGraph.build(g.lattice, nodes, edges)
    return GraphMorphism(sub, g, {n: n for n in keep_nodes},
                         {e: e for e in keep_edges})


def lower_one_label(g: LabeledGraph, rng: random.Random) -> GraphMorphism | None:
    """Identity-shaped morphism from a copy with one strictly lowered label."""
    lat = g.lattice
    strict = []
    for n in g.sorted_nodes:
        downs = [x for x in labels_leq(lat, g.node_labels[n]) if x != g.node_labels[n]]
        if downs:
            strict.append(("node", n, downs))
    for e in g.sorted_edges:
        downs = [x for x in labels_leq(lat, g.edge_labels[e]) if x != g.edge_labels[e]]
        if downs:
            strict.append(("edge", e, downs))
    if not strict:
        return None
    kind, ident, downs = rng.choice(strict)
    nodes = {n: g.node_labels[n] for n in g.nodes}
    edges = {e: (g.src[e], g.tgt[e], g.edge_labels[e]) for e in g.edges}
    if kind == "node":
        nodes[ident] = rng.choice(downs)
    else:
        s, t, _ = edges[ident]
        edges[ident] = (s, t, rng.choice(downs))
    dom = LabeledGraph.build(lat, nodes, edges)
    return GraphMorphism(dom, g, {n: n for n in g.nodes}, {e: e for e in g.edges})


def pullback_candidates(rng: random.Random, cospan: Cospan,
                        result) -> list[tuple[Span, bool]]:
    """Competing spans for a computed pullback, tagged with whether the
    candidate apex itself is a pullback of the cospan."""
    p = result.object
    out: list[tuple[Span, bool]] = [
        (Span(result.left_leg, result.right_leg), True),
    ]
    iso = rename_iso(p)
    inv = GraphMorphism(iso.cod, p,
                        {v: k for k, v in iso.node_map.items()},
                        {v: k for k, v in iso.edge_map.items()})
    out.append((Span(compose(inv, result.left_leg),
                     compose(inv, result.right_leg)), True))
    empty = LabeledGraph.empty(p.lattice)
    empty_left = GraphMorphism(empty, result.left_leg.cod, {}, {})
    empty_right = GraphMorphism(empty, result.right_leg.cod, {}, {})
    out.append((Span(empty_left, empty_right), len(p.nodes) == 0 and len(p.edges) == 0))
    if p.nodes or p.edges:
        if p.edges and rng.random() < 0.5:
            drop_edge = rng.choice(sorted(p.edges))
            keep_nodes, keep_edges = set(p.nodes), set(p.edges) - {drop_edge}
        else:
            drop_node = rng.choice(sorted(p.nodes)) if p.nodes else None
            keep_nodes = set(p.nodes) - {drop_node}
            keep_edges = {e for e in p.edges
                          if p.src[e] in keep_nodes and p.tgt[e] in keep_nodes}
        inc = restrict_to_subgraph(p, keep_nodes, keep_edges)
        out.append((Span(compose(inc, result.left_leg),
                         compose(inc, result.right_leg)), False))
    low = lower_one_label(p, rng)
    if low is not None:
        out.append((Span(compose(low, result.left_leg),
                         compose(low, result.right_leg)), False))
    return out


# ----------------------------------------------------- rules and hosts


def random_rule(rng: random.Random, lat: LabelLattice):
    """A valid rule built from a random typed pattern and type-graph map."""
    l_prime = random_graph(rng, lat, max_nodes=3, max_edges=3, prefix="t",
                           min_nodes=1)
    chosen_nodes = [n for n in l_prime.sorted_nodes if rng.random() < 0.7]
    if not chosen_nodes:
        chosen_nodes = [l_prime.sorted_nodes[0]]
    chosen_edges = [e for e in l_prime.sorted_edges
                    if l_prime.src[e] in chosen_nodes
                    and l_prime.tgt[e] in chosen_nodes and rng.random() < 0.5]
    l_nodes = {f"p_{n}": rng.choice(labels_leq(lat, l_prime.node_labels[n]))
               for n in chosen_nodes}
    l_edges = {f"p_{e}": (f"p_{l_prime.src[e]}", f"p_{l_prime.tgt[e]}",
                          rng.choice(labels_leq(lat, l_prime.edge_labels[e])))
               for e in chosen_edges}
    pattern = LabeledGraph.build(lat, l_nodes, l_edges)
    t_l = GraphMorphism(pattern, l_prime,
                        {f"p_{n}": n for n in chosen_nodes},
                        {f"p_{e}": e for e in chosen_edges})

    # K': zero to two copies per type node, edges per compatible copy pair.
    copies: dict[str, list[str]] = {}
    kp_nodes: dict[str, str] = {}
    lp_node_map: dict[str, str] = {}
    for n in l_prime.sorted_nodes:
        count = rng.choice([0, 1, 1, 1, 2])
        if n in t_l.node_map.values() and count == 0 and rng.random() < 0.7:
            count = 1  # keep most of the pattern alive so matches do something
        copies[n] = []
        for i in range(count):
            ident = f"k_{n}_{i}"
            copies[n].append(ident)
            kp_nodes[ident] = rng.choice(labels_leq(lat, l_prime.node_labels[n]))
            lp_node_map[ident] = n
    kp_edges: dict[str, tuple[str, str, str]] = {}
    lp_edge_map: dict[str, str] = {}
    for e in l_prime.sorted_edges:
        for s_copy in copies[l_prime.src[e]]:
            for t_copy in copies[l_prime.tgt[e]]:
                if rng.random() < 0.7:
                    ident = f"k_{e}_{s_copy}_{t_copy}"
                    kp_edges[ident] = (s_copy, t_copy,
                                       rng.choice(labels_leq(lat, l_prime.edge_labels[e])))
                    lp_edge_map[ident] = e
    k_prime = LabeledGraph.build(lat, kp_nodes, kp_edges)
    l_prime_map = GraphMorphism(k_prime, l_prime, lp_node_map, lp_edge_map)

    interface = preimage(t_l, l_prime_map).graph
    merge_groups = []
    k_node_ids = list(interface.sorted_nodes)
    if len(k_node_ids) >= 2 and rng.random() < 0.5:
        merge_groups.append(tuple(rng.sample(k_node_ids, 2)))
    fresh_nodes = {}
    fresh_edges = {}
    if rng.random() < 0.5:
        fresh_nodes["f0"] = rng.choice(lat.sorted_elements())
        anchors = k_node_ids + ["f0"]
        if rng.random() < 0.5:
            fresh_edges["fe0"] = (rng.choice(anchors), rng.choice(anchors),
                                  rng.choice(lat.sorted_elements()))
    spec = RhsSpec(merge_nodes=tuple(merge_groups),
                   fresh_nodes=fresh_nodes, fresh_edges=fresh_edges)
    return complete_rule(pattern, t_l, l_prime_map, spec, name="random")


def random_sink_rule(rng: random.Random, lat: LabelLattice):
    """A valid rule whose ``L'`` has a sink, as every BDD rule's has: a
    random pattern typed onto a copy of itself with labels at or above its
    own, one context node ``c`` with one loop ``cc``, both randomly
    labelled, and random context edges between ``c`` and pattern nodes or
    between two pattern nodes, up to two of them parallel.  ``l'`` is the
    identity.

    An adherence can send a host edge to any of the parallel edges, so the
    adherences at one occurrence number up to 2 to the power of the host
    edges at it; more parallel edges make a test's search explode."""
    pattern = random_graph(rng, lat, max_nodes=3, max_edges=3, prefix="p", min_nodes=1)
    labels = lat.sorted_elements()
    nodes = {n: rng.choice(labels_geq(lat, pattern.node_labels[n]))
             for n in pattern.sorted_nodes}
    edges = {e: (pattern.src[e], pattern.tgt[e],
                 rng.choice(labels_geq(lat, pattern.edge_labels[e])))
             for e in pattern.sorted_edges}
    nodes["c"] = rng.choice(labels)
    edges["cc"] = ("c", "c", rng.choice(labels))
    pairs: list[tuple[str, str]] = []
    for j in range(rng.randint(0, 5)):
        if pairs and rng.random() < 0.4:
            s, t = rng.choice(pairs)  # parallel to an earlier context edge
        else:
            p = rng.choice(pattern.sorted_nodes)
            s, t = rng.choice([("c", p), (p, "c"), (p, rng.choice(pattern.sorted_nodes))])
        if pairs.count((s, t)) < 2:
            pairs.append((s, t))
            edges[f"x{j}"] = (s, t, rng.choice(labels))
    context = LabeledGraph.build(lat, nodes, edges)
    t_l = GraphMorphism(pattern, context, {n: n for n in pattern.nodes},
                        {e: e for e in pattern.edges})
    return complete_rule(pattern, t_l, identity(context), name="sink")


def random_host_with_match(rng: random.Random, rule) -> tuple[LabeledGraph, Match]:
    """A host plus a strong match, built by instantiating the typed pattern
    exactly once and hanging context off the context part of the type."""
    lat = rule.L.lattice
    pattern, l_prime, t_l = rule.L, rule.Lp, rule.tL
    nodes: dict[str, str] = {}
    m_nodes: dict[str, str] = {}
    alpha_nodes: dict[str, str] = {}
    for l in pattern.sorted_nodes:
        hid = f"h_{l}"
        lo = pattern.node_labels[l]
        hi = l_prime.node_labels[t_l.node_map[l]]
        options = [x for x in labels_geq(lat, lo) if lat.leq(x, hi)]
        nodes[hid] = rng.choice(options)
        m_nodes[l] = hid
        alpha_nodes[hid] = t_l.node_map[l]
    pattern_node_images = set(t_l.node_map.values())
    ctx_nodes = [n for n in l_prime.sorted_nodes if n not in pattern_node_images]
    for i in range(rng.randint(0, 3)):
        if not ctx_nodes:
            break
        target = rng.choice(ctx_nodes)
        hid = f"hc{i}"
        nodes[hid] = rng.choice(labels_leq(lat, l_prime.node_labels[target]))
        alpha_nodes[hid] = target
    edges: dict[str, tuple[str, str, str]] = {}
    m_edges: dict[str, str] = {}
    alpha_edges: dict[str, str] = {}
    for e in pattern.sorted_edges:
        hid = f"h_{e}"
        lo = pattern.edge_labels[e]
        hi = l_prime.edge_labels[t_l.edge_map[e]]
        options = [x for x in labels_geq(lat, lo) if lat.leq(x, hi)]
        edges[hid] = (m_nodes[pattern.src[e]], m_nodes[pattern.tgt[e]],
                      rng.choice(options))
        m_edges[e] = hid
        alpha_edges[hid] = t_l.edge_map[e]
    pattern_edge_images = set(t_l.edge_map.values())
    ctx_edges = [e for e in l_prime.sorted_edges if e not in pattern_edge_images]
    for j in range(rng.randint(0, 4)):
        if not ctx_edges:
            break
        te = rng.choice(ctx_edges)
        s_opts = sorted(h for h, t in alpha_nodes.items() if t == l_prime.src[te])
        t_opts = sorted(h for h, t in alpha_nodes.items() if t == l_prime.tgt[te])
        if not s_opts or not t_opts:
            continue
        hid = f"hce{j}"
        edges[hid] = (rng.choice(s_opts), rng.choice(t_opts),
                      rng.choice(labels_leq(lat, l_prime.edge_labels[te])))
        alpha_edges[hid] = te
    host = LabeledGraph.build(lat, nodes, edges)
    m = GraphMorphism(pattern, host, m_nodes, m_edges)
    alpha = GraphMorphism(host, l_prime, alpha_nodes, alpha_edges)
    return host, Match(m=m, alpha=alpha, typing=t_l)


def perturbed_host(rng: random.Random, rule, host: LabeledGraph,
                   match: Match) -> LabeledGraph:
    """``host`` with up to two nodes whose labels are not below the label
    of the sink ``c`` of ``rule`` and up to three edges at nodes of
    ``match``: loops, and edges parallel to ones there, randomly labelled.
    These are the elements an adherence built in closed form must decide
    as the search does."""
    lat = host.lattice
    labels = lat.sorted_elements()
    c_label = rule.Lp.node_labels[rule._sink[0]]
    not_below = [x for x in labels if not lat.leq(x, c_label)]
    nodes = dict(host.node_labels)
    for i in range(rng.randint(0, 2) if not_below else 0):
        nodes[f"hx{i}"] = rng.choice(not_below)
    edges = {e: (host.src[e], host.tgt[e], host.edge_labels[e]) for e in host.sorted_edges}
    pins = sorted(match.m.node_map.values())
    at_pins = [e for e in host.sorted_edges if host.src[e] in pins or host.tgt[e] in pins]
    for j in range(rng.randint(0, 3)):
        if at_pins and rng.random() < 0.5:
            s, t, _ = edges[rng.choice(at_pins)]
        else:
            s = t = rng.choice(pins)
        edges[f"hy{j}"] = (s, t, rng.choice(labels))
    return LabeledGraph.build(lat, nodes, edges)


def permute_ids(rng: random.Random, g: LabeledGraph) -> GraphMorphism:
    """Isomorphism onto a copy of ``g`` with shuffled ids."""
    node_ids = list(g.sorted_nodes)
    edge_ids = list(g.sorted_edges)
    new_nodes = [f"q{i}" for i in range(len(node_ids))]
    new_edges = [f"qe{i}" for i in range(len(edge_ids))]
    rng.shuffle(new_nodes)
    rng.shuffle(new_edges)
    node_map = dict(zip(node_ids, new_nodes))
    edge_map = dict(zip(edge_ids, new_edges))
    return GraphMorphism(g, g.rename(node_map, edge_map), node_map, edge_map)


def random_truth_table(rng: random.Random, variables: list[str]):
    from pbpoplus import TruthTable

    bits = "".join(rng.choice("01") for _ in range(2 ** len(variables)))
    return TruthTable.from_bits(bits, variables)


def sweep_tables() -> list:
    """The criterion-7 corpus: all 16 two-variable tables, then 50 random
    three-variable and 50 random four-variable ones (seed 2024)."""
    from pbpoplus import TruthTable

    rng = random.Random(2024)
    tables = [TruthTable.from_bits(format(i, "04b"), ["p", "q"]) for i in range(16)]
    for n, count in ((3, 50), (4, 50)):
        variables = [f"v{i}" for i in range(n)]
        tables.extend(random_truth_table(rng, variables) for _ in range(count))
    return tables


# ------------------------------------------------ reference kernels


def reference_join(lat: LabelLattice, labels) -> str:
    """Least upper bound by a fresh scan of ``lat.order``, with the errors of
    :meth:`LabelLattice.join`; the reference for its memoised result."""
    items = list(labels)
    for x in items:
        if x not in lat.elements:
            raise UnknownLabelError(f"label {x!r} is not in the lattice")
    if not items:
        if lat.bottom is None:
            raise LatticeError("join of no labels needs a bottom element")
        return lat.bottom
    uppers = [u for u in lat.sorted_elements()
              if all((x, u) in lat.order for x in items)]
    least = [u for u in uppers if all((u, v) in lat.order for v in uppers)]
    if len(least) != 1:
        raise LatticeError(f"no unique supremum for {sorted(items)}")
    return least[0]


def reference_meet(lat: LabelLattice, labels) -> str:
    """Greatest lower bound by a fresh scan of ``lat.order``; see
    :func:`reference_join`."""
    items = list(labels)
    for x in items:
        if x not in lat.elements:
            raise UnknownLabelError(f"label {x!r} is not in the lattice")
    if not items:
        if lat.top is None:
            raise LatticeError("meet of no labels needs a top element")
        return lat.top
    lowers = [l for l in lat.sorted_elements()
              if all((l, x) in lat.order for x in items)]
    greatest = [l for l in lowers if all((v, l) in lat.order for v in lowers)]
    if len(greatest) != 1:
        raise LatticeError(f"no unique infimum for {sorted(items)}")
    return greatest[0]


def reference_homomorphisms(g: LabeledGraph, h: LabeledGraph,
                            injective: bool = False) -> list[GraphMorphism]:
    """Every morphism ``g -> h`` by unpruned backtracking: nodes in id order,
    each tried against every node of ``h``, then edges in id order.  The
    output is therefore in lexicographic order of the assignment."""
    leq = g.lattice.leq
    nodes, edges = g.sorted_nodes, g.sorted_edges
    found: list[GraphMorphism] = []

    def place_edges(i: int, nm: dict[str, str], em: dict[str, str]) -> None:
        if i == len(edges):
            found.append(GraphMorphism(g, h, dict(nm), dict(em)))
            return
        e = edges[i]
        for c in h.sorted_edges:
            if (h.src[c] == nm[g.src[e]] and h.tgt[c] == nm[g.tgt[e]]
                    and leq(g.edge_labels[e], h.edge_labels[c])
                    and not (injective and c in em.values())):
                em[e] = c
                place_edges(i + 1, nm, em)
                del em[e]

    def place_nodes(i: int, nm: dict[str, str]) -> None:
        if i == len(nodes):
            place_edges(0, nm, {})
            return
        n = nodes[i]
        for c in h.sorted_nodes:
            if (leq(g.node_labels[n], h.node_labels[c])
                    and not (injective and c in nm.values())):
                nm[n] = c
                place_nodes(i + 1, nm)
                del nm[n]

    place_nodes(0, {})
    return found


def searched_adherences(m: GraphMorphism, rule, g: LabeledGraph) -> list[GraphMorphism]:
    """The adherences compatible with ``m`` as the pooled search finds them:
    the pattern image pinned onto ``tL``, every other host element confined
    to the context part of ``L'``.  The reference for
    :func:`pbpoplus.matching._adherences_for`, maps and key order both."""
    t_l, l_prime = rule.tL, rule.Lp
    node_pools = dict.fromkeys(g.nodes, l_prime.nodes - t_l.node_image())
    node_pools.update((m.node_map[l], (t,)) for l, t in t_l.node_map.items())
    edge_pools = dict.fromkeys(g.edges, l_prime.edges - t_l.edge_image())
    edge_pools.update((m.edge_map[e], (t,)) for e, t in t_l.edge_map.items())
    return list(_hom_search(g, l_prime, False, node_pools, edge_pools))


def count_adherence_searches(monkeypatch) -> list[LabeledGraph]:
    """Patch :func:`pbpoplus.matching._hom_search` to record the host of each
    search that :func:`pbpoplus.matching._adherences_for` starts, in the
    returned list, and to run it unchanged."""
    from pbpoplus import matching

    searched: list[LabeledGraph] = []
    search, caller = matching._hom_search, matching._adherences_for.__code__

    def counted(*args, **kwargs):
        if sys._getframe(1).f_code is caller:
            searched.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(matching, "_hom_search", counted)
    return searched


def naive_find_matches(rule, g: LabeledGraph) -> list[Match]:
    """Reference implementation: filter every adherence through the strong
    match check.  Exponential in host size; used to cross-check
    :func:`pbpoplus.find_matches` on small instances."""
    matches = []
    for alpha in enumerate_homomorphisms(g, rule.Lp):
        match = check_strong_match(rule.tL, alpha)
        if match is not None:
            matches.append(match)
    matches.sort(key=Match.sort_key)
    return matches


def reference_pullback(c: Cospan) -> LimitResult:
    """The pullback written out one sort after the other, raising at the
    first id met twice: the reference for :func:`pbpoplus.pullback`.
    Object (with insertion order), legs, namings and errors must agree."""
    f, g = c.left, c.right
    _require_valid(SquareError, "invalid-cospan", ("left", f), ("right", g))
    B, C = f.dom, g.dom
    lat = B.lattice
    meet = lat.meet

    # Fibres of C keep id order, so pairs are made in (B id, C id) order.
    c_by_node: dict[str, list[str]] = {}
    for cn in C.sorted_nodes:
        c_by_node.setdefault(g.node_map[cn], []).append(cn)
    c_by_edge: dict[str, list[str]] = {}
    for ec in C.sorted_edges:
        c_by_edge.setdefault(g.edge_map[ec], []).append(ec)

    node_naming: dict[str, tuple] = {}
    node_labels: dict[str, str] = {}
    left_nodes: dict[str, str] = {}
    right_nodes: dict[str, str] = {}
    for b in B.sorted_nodes:
        for cn in c_by_node.get(f.node_map[b], ()):
            nid = pair_id(b, cn)
            if nid in node_naming:
                raise SquareError(f"id-collision: pairs {node_naming[nid]} and "
                                  f"{(b, cn)} both render as node {nid!r}")
            node_naming[nid] = (b, cn)
            node_labels[nid] = meet([B.node_labels[b], C.node_labels[cn]])
            left_nodes[nid] = b
            right_nodes[nid] = cn

    edge_naming: dict[str, tuple] = {}
    edge_labels: dict[str, str] = {}
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    left_edges: dict[str, str] = {}
    right_edges: dict[str, str] = {}
    for eb in B.sorted_edges:
        for ec in c_by_edge.get(f.edge_map[eb], ()):
            eid = pair_id(eb, ec)
            if eid in edge_naming:
                raise SquareError(f"id-collision: pairs {edge_naming[eid]} and "
                                  f"{(eb, ec)} both render as edge {eid!r}")
            edge_naming[eid] = (eb, ec)
            edge_labels[eid] = meet([B.edge_labels[eb], C.edge_labels[ec]])
            src[eid] = pair_id(B.src[eb], C.src[ec])
            tgt[eid] = pair_id(B.tgt[eb], C.tgt[ec])
            left_edges[eid] = eb
            right_edges[eid] = ec

    obj = LabeledGraph(
        lattice=lat,
        nodes=frozenset(node_naming),
        edges=frozenset(edge_naming),
        src=src,
        tgt=tgt,
        node_labels=node_labels,
        edge_labels=edge_labels,
    )
    left_leg = GraphMorphism(obj, B, left_nodes, left_edges)
    right_leg = GraphMorphism(obj, C, right_nodes, right_edges)

    # Monomorphisms are stable under pullback; a violation is an engine bug.
    if g.is_injective():
        assert left_leg.is_injective(), "pullback of an injective leg lost injectivity"
    if f.is_injective():
        assert right_leg.is_injective(), "pullback of an injective leg lost injectivity"
    return LimitResult(obj, left_leg, right_leg, node_naming, edge_naming)


def reference_pushout(s: Span) -> LimitResult:
    """The pushout written out one sort after the other, each class sorted
    and named after its first member: the reference for
    :func:`pbpoplus.pushout`.  Classes, their order, ids, labels and legs
    must agree."""
    f, g = s.left, s.right
    _require_valid(SquareError, "invalid-span", ("left", f), ("right", g))
    A = f.dom
    B, C = f.cod, g.cod
    lat = B.lattice
    join = lat.join

    node_items = [("0", n) for n in B.sorted_nodes] + [("1", n) for n in C.sorted_nodes]
    edge_items = [("0", e) for e in B.sorted_edges] + [("1", e) for e in C.sorted_edges]
    nodes_uf = _UnionFind(node_items)
    edges_uf = _UnionFind(edge_items)
    for a in A.sorted_nodes:
        nodes_uf.union(("0", f.node_map[a]), ("1", g.node_map[a]))
    for e in A.sorted_edges:
        edges_uf.union(("0", f.edge_map[e]), ("1", g.edge_map[e]))

    def label_of(member: tuple[str, str], is_edge: bool) -> str:
        side, ident = member
        foot = B if side == "0" else C
        return foot.edge_labels[ident] if is_edge else foot.node_labels[ident]

    def rendered(member: tuple[str, str]) -> str:
        side, ident = member
        return f"{side}:{ident}"

    node_rep: dict[tuple[str, str], str] = {}
    node_naming: dict[str, tuple] = {}
    node_labels: dict[str, str] = {}
    for root, members in nodes_uf.classes().items():
        members = sorted(members)
        rep = rendered(members[0])
        node_naming[rep] = tuple(members)
        node_labels[rep] = join(label_of(m, is_edge=False) for m in members)
        for m in members:
            node_rep[m] = rep

    edge_rep: dict[tuple[str, str], str] = {}
    edge_naming: dict[str, tuple] = {}
    edge_labels: dict[str, str] = {}
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    for root, members in edges_uf.classes().items():
        members = sorted(members)
        rep = rendered(members[0])
        edge_naming[rep] = tuple(members)
        edge_labels[rep] = join(label_of(m, is_edge=True) for m in members)
        side, ident = members[0]
        foot = B if side == "0" else C
        src[rep] = node_rep[(side, foot.src[ident])]
        tgt[rep] = node_rep[(side, foot.tgt[ident])]
        for m in members:
            edge_rep[m] = rep

    obj = LabeledGraph(
        lattice=lat,
        nodes=frozenset(node_naming),
        edges=frozenset(edge_naming),
        src=src,
        tgt=tgt,
        node_labels=node_labels,
        edge_labels=edge_labels,
    )
    left_leg = GraphMorphism(
        B, obj,
        {n: node_rep[("0", n)] for n in B.nodes},
        {e: edge_rep[("0", e)] for e in B.edges})
    right_leg = GraphMorphism(
        C, obj,
        {n: node_rep[("1", n)] for n in C.nodes},
        {e: edge_rep[("1", e)] for e in C.edges})
    return LimitResult(obj, left_leg, right_leg, node_naming, edge_naming)


def reference_validate_morphism(f: GraphMorphism) -> Report:
    """The element-by-element check as it was written before its fast path
    and it were merged, reporting a label outside the lattice before the
    label condition: the reference for :func:`pbpoplus.validate_morphism`,
    which records each defect in one pass with a faster valid path."""
    report = Report()
    if f.dom.lattice != f.cod.lattice:
        report.add("lattice-mismatch", "dom and cod use different lattices")
        return report
    lat = f.dom.lattice
    leq = lat.leq
    for n in f.dom.sorted_nodes:
        v = f.node_map.get(n)
        if v is None:
            report.add("unmapped-node", f"node {n!r} has no image")
        elif v not in f.cod.nodes:
            report.add("bad-target", f"node {n!r} maps to unknown node {v!r}")
        elif not {f.dom.node_labels[n], f.cod.node_labels[v]} <= lat.elements:
            report.add("label-domain", f"node {n!r} at {v!r}: labels "
                       f"{f.dom.node_labels[n]!r} and {f.cod.node_labels[v]!r} "
                       "are not both in the lattice")
        elif not leq(f.dom.node_labels[n], f.cod.node_labels[v]):
            report.add("label-condition",
                       f"node {n!r}: {f.dom.node_labels[n]!r} is not below "
                       f"{f.cod.node_labels[v]!r} at {v!r}")
    for e in f.dom.sorted_edges:
        img = f.edge_map.get(e)
        if img is None:
            report.add("unmapped-edge", f"edge {e!r} has no image")
            continue
        if img not in f.cod.edges:
            report.add("bad-target", f"edge {e!r} maps to unknown edge {img!r}")
            continue
        s_img = f.node_map.get(f.dom.src[e])
        t_img = f.node_map.get(f.dom.tgt[e])
        if s_img is not None and f.cod.src[img] != s_img:
            report.add("source-commutation",
                       f"edge {e!r}: image source {f.cod.src[img]!r} differs "
                       f"from mapped source {s_img!r}")
        if t_img is not None and f.cod.tgt[img] != t_img:
            report.add("target-commutation",
                       f"edge {e!r}: image target {f.cod.tgt[img]!r} differs "
                       f"from mapped target {t_img!r}")
        if not {f.dom.edge_labels[e], f.cod.edge_labels[img]} <= lat.elements:
            report.add("label-domain", f"edge {e!r} at {img!r}: labels "
                       f"{f.dom.edge_labels[e]!r} and {f.cod.edge_labels[img]!r} "
                       "are not both in the lattice")
        elif not leq(f.dom.edge_labels[e], f.cod.edge_labels[img]):
            report.add("label-condition",
                       f"edge {e!r}: {f.dom.edge_labels[e]!r} is not below "
                       f"{f.cod.edge_labels[img]!r} at {img!r}")
    extra_nodes = set(f.node_map) - f.dom.nodes
    extra_edges = set(f.edge_map) - f.dom.edges
    if extra_nodes:
        report.add("bad-domain", f"map defined on foreign nodes {sorted(extra_nodes)}")
    if extra_edges:
        report.add("bad-domain", f"map defined on foreign edges {sorted(extra_edges)}")
    return report


def reference_step(rule, match: Match, step: int = 0):
    """A PBPO+ step built through the limits of :mod:`pbpoplus.limits`: the
    reference for :func:`pbpoplus.pbpo_step`, which edits copies of the
    host's maps instead.

    ``G_K`` is ``pullback(Cospan(alpha, l'))`` renamed as a step names it:
    a pair keeps the id of its host element when it is the only pair over
    it, else it is stamped after its ``K'`` element, in pair order.  ``u``
    sends ``k`` to the pair ``(m(l(k)), tK(k))``.  ``G_R`` is
    ``pushout(Span(u, r))`` renamed so that a class keeps the id of its
    smallest ``G_K`` member and a class of ``R`` elements alone is stamped
    after its root, in class order.  Returns the result and its trace,
    unchecked."""
    from collections import Counter

    from pbpoplus.rewriting import RewriteTrace, _stamper

    m, alpha, lp = match.m, match.alpha, rule.lp
    stamp = _stamper(step, alpha.dom)
    mid = pullback(Cospan(alpha, lp))
    renamed = []
    for naming, lp_map in ((mid.node_naming, lp.node_map), (mid.edge_naming, lp.edge_map)):
        sizes = Counter(lp_map.values())
        renamed.append({x: g if sizes[lp_map[c]] == 1 else stamp(c)
                        for x, (g, c) in naming.items()})
    g_mid = mid.object.rename(*renamed)

    def leg(f, dom, cod, node_ids, edge_ids, at_dom):
        """``f`` with its domain or codomain ids renamed."""
        def move(mapping, ids):
            if at_dom:
                return {ids[x]: y for x, y in mapping.items()}
            return {x: ids[y] for x, y in mapping.items()}
        return GraphMorphism(dom, cod, move(f.node_map, node_ids), move(f.edge_map, edge_ids))

    g_l = leg(mid.left_leg, g_mid, alpha.dom, *renamed, True)
    u_prime = leg(mid.right_leg, g_mid, rule.Kp, *renamed, True)
    pair_node, pair_edge = ({pair: ids[x] for x, pair in naming.items()}
                            for naming, ids in zip((mid.node_naming, mid.edge_naming),
                                                   renamed))
    u = GraphMorphism(
        rule.K, g_mid,
        {k: pair_node[m.node_map[rule.l.node_map[k]], rule.tK.node_map[k]]
         for k in rule.K.nodes},
        {k: pair_edge[m.edge_map[rule.l.edge_map[k]], rule.tK.edge_map[k]]
         for k in rule.K.edges})
    out = pushout(Span(u, rule.r))
    glued = [{x: root if side == "0" else stamp(root)
              for x, ((side, root), *_) in naming.items()}
             for naming in (out.node_naming, out.edge_naming)]
    g_out = out.object.rename(*glued)
    g_r = leg(out.left_leg, g_mid, g_out, *glued, False)
    w = leg(out.right_leg, rule.R, g_out, *glued, False)
    return g_out, RewriteTrace(rule=rule, g_in=alpha.dom, g_mid=g_mid, g_out=g_out, m=m,
                               alpha=alpha, g_l=g_l, g_r=g_r, u=u, u_prime=u_prime, w=w)


def same_maps(f: GraphMorphism, g: GraphMorphism) -> bool:
    return f.node_map == g.node_map and f.edge_map == g.edge_map


def commutes(span: Span, cospan: Cospan) -> bool:
    """Whether the square commutes, on composed morphisms."""
    return same_maps(compose(span.left, cospan.left), compose(span.right, cospan.right))


def is_exact_bijection(f: GraphMorphism) -> bool:
    """Whether ``f`` is a bijection onto its codomain that keeps every label."""
    dom, cod = f.dom, f.cod
    return (len(set(f.node_map.values())) == len(dom.nodes) == len(cod.nodes)
            and len(set(f.edge_map.values())) == len(dom.edges) == len(cod.edges)
            and all(dom.node_labels[a] == cod.node_labels[b] for a, b in f.node_map.items())
            and all(dom.edge_labels[a] == cod.edge_labels[b] for a, b in f.edge_map.items()))


def reference_is_pullback(cospan: Cospan, span: Span) -> bool:
    """Whether a commuting square is a pullback, by exhaustive search: the
    one mediator from its corner into the canonical pullback is a
    label-exact bijection.  The reference for the counting verdict of
    :func:`pbpoplus.is_pullback_square`."""
    (mediator,) = pullback_mediators(pullback(cospan), span, limit=2)
    return is_exact_bijection(mediator)


def reference_is_pushout(span: Span, cospan: Cospan) -> bool:
    """Whether a commuting square is a pushout, by exhaustive search: the
    one mediator from the canonical pushout into its corner is a
    label-exact bijection."""
    (mediator,) = pushout_mediators(pushout(span), cospan, limit=2)
    return is_exact_bijection(mediator)


def reference_check_step(trace) -> Report:
    """The composite step check: the reference for
    :func:`pbpoplus.rewriting._check_step`, which decides the same
    properties by counting, on the patch of ``G_K``.

    Every leg is validated whole, each equation is checked on composed
    maps, and each square that commutes has its universal property decided
    by the exhaustive mediator search over its canonical limit, built
    afresh: the middle square over ``pullback(Cospan(m, g_L))``, the
    deletion square over ``pullback(Cospan(alpha, l'))`` and the addition
    square over ``pushout(Span(u, r))``."""
    report = Report()
    for name in ("g_l", "g_r", "u", "u_prime", "w"):
        report.extend(getattr(trace, name)._report, prefix=f"{name}: ")
    if not report.ok:
        return report
    rule = trace.rule
    if not same_maps(compose(trace.u, trace.u_prime), rule.tK):
        report.add("mediator", "u' . u differs from tK")
    if not trace.u.is_injective():
        report.add("mediator", "interface embedding u is not injective")
    matched, interface = Cospan(trace.m, trace.g_l), Span(rule.l, trace.u)
    deletion, kept = Cospan(trace.alpha, rule.lp), Span(trace.g_l, trace.u_prime)
    addition, glued = Span(trace.u, rule.r), Cospan(trace.g_r, trace.w)
    for span, cospan, is_limit, commuting, universal in (
            (interface, matched, lambda: reference_is_pullback(matched, interface),
             ("middle-square", "g_L . u differs from m . l"),
             ("mediator", "u is not the pullback of m along g_L")),
            (kept, deletion, lambda: reference_is_pullback(deletion, kept),
             ("middle-square", "alpha . g_L differs from l' . u'"),
             ("middle-square", "the deletion square is not a pullback")),
            (addition, glued, lambda: reference_is_pushout(addition, glued),
             ("right-square", "g_R . u differs from w . r"),
             ("right-square", "the addition square is not a pushout"))):
        if not commutes(span, cospan):
            report.add(*commuting)
        elif not is_limit():
            report.add(*universal)
    return report


def reference_premise(trace, edges: bool, patch: set[str]) -> bool:
    """The premise of the patch lemma on one sort, by whole-map comparison:
    outside ``patch``, ``G_K`` is the host, ``G_R`` is ``G_K``, ``g_L`` and
    ``g_R`` are the identity and ``u'`` is ``plain . alpha``.  The step
    check decides it from the construction's edit record instead."""
    def outside(entries: dict) -> dict:
        return {x: y for x, y in entries.items() if x not in patch}

    def sort(g):
        return g.edge_labels if edges else g.node_labels

    def legmap(f):
        return f.edge_map if edges else f.node_map

    host, mid, out = trace.g_in, trace.g_mid, trace.g_out
    alpha, plain = legmap(trace.alpha), trace.rule._plain[edges]
    pairs = [(sort(host), sort(mid)), (sort(mid), sort(out)),
             ({x: plain.get(y) for x, y in alpha.items()}, legmap(trace.u_prime))]
    if edges:
        pairs += [(host.src, mid.src), (host.tgt, mid.tgt), (mid.src, out.src),
                  (mid.tgt, out.tgt)]
    return (all(outside(a) == outside(b) for a, b in pairs)
            and all(x == y for f in (trace.g_l, trace.g_r)
                    for x, y in outside(legmap(f)).items()))


def reference_normalize(g: LabeledGraph, rules, max_steps=None) -> NormalizeResult:
    """:func:`pbpoplus.normalize` without certificates: every rule is
    searched from scratch on every step, in order, and the first strong
    match of the first rule that has one fires.  Every trace is kept."""
    traces = []
    current = g
    while max_steps is None or len(traces) < max_steps:
        for rule in rules:
            match = next(iter_matches(rule, current), None)
            if match is not None:
                current, trace = pbpo_step(rule, match, step=len(traces))
                traces.append(trace)
                break
        else:
            return NormalizeResult(current, tuple(traces), True, len(traces))
    more = any(next(iter_matches(rule, current), None) is not None for rule in rules)
    return NormalizeResult(current, tuple(traces), not more, len(traces))
