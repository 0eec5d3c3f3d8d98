"""Homomorphism enumeration, adherence morphisms, and strong matches.

A strong match for a context typing ``t_L : L -> L'`` is an adherence
``alpha : G -> L'`` whose pullback against ``t_L`` recovers exactly one
copy of ``L``; the induced morphism ``m : L -> G`` is the match morphism.
Since context typings are injective here, every match morphism is
injective as well.

``find_matches`` enumerates matches rule-first: it backtracks over
injective embeddings of the pattern and then over adherences of the rest
of the host into the context part of the type graph.  This produces the
same set as filtering every host-to-type homomorphism through the strong
match check (the naive route is kept for cross-checking in tests), but
stays fast when the host has many interchangeable pattern occurrences.

The backtracking search places nodes one at a time.  A node with several
candidates that is joined by an edge to a node placed earlier is anchored
on it: only the neighbours of the anchor's image, in the edge's direction,
are tried, intersected with the node's label-compatible candidates and
sorted.  Anchoring only skips candidates that could never complete the
edge, so results and their order are those of the plain search; it is the
unrooted form of rooted matching in GP 2 (Bak & Plump, 2012).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .errors import LatticeError, MorphismError, RuleError
from .graph import GraphMorphism, LabeledGraph, compose, identity
from .limits import Cospan, Span, is_pullback_square, pullback

if TYPE_CHECKING:
    from .rewriting import PbpoRule


@dataclass(frozen=True)
class Match:
    """An injective occurrence plus the adherence that types the host."""

    m: GraphMorphism      # L -> G
    alpha: GraphMorphism  # G -> L'
    typing: GraphMorphism  # t_L : L -> L'

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.m.node_map.items())),
                tuple(sorted(self.m.edge_map.items())),
                tuple(sorted(self.alpha.node_map.items())),
                tuple(sorted(self.alpha.edge_map.items())))


def _hom_search(dom: LabeledGraph, cod: LabeledGraph, injective: bool,
                allowed_nodes: Optional[frozenset[str]] = None,
                allowed_edges: Optional[frozenset[str]] = None,
                forced_nodes: Optional[dict[str, str]] = None,
                forced_edges: Optional[dict[str, str]] = None,
                lex: bool = False) -> Iterator[GraphMorphism]:
    """Backtracking core shared by plain enumeration and adherence extension.

    ``allowed_*`` restrict images of non-forced elements; ``forced_*`` pin
    images outright.  With ``lex`` the nodes are processed in id order and
    results come out lexicographically sorted by assignment; otherwise the
    most-constrained node goes first and callers sort.
    """
    above = dom.lattice._above
    forced_nodes = forced_nodes or {}
    forced_edges = forced_edges or {}
    node_labels, edge_labels = dom.node_labels, dom.edge_labels
    cod_nlab, cod_elab = cod.node_labels, cod.edge_labels
    cod_src, cod_tgt = cod.src, cod.tgt
    dom_src, dom_tgt = dom.src, dom.tgt

    def base_node_targets(n: str) -> tuple[str, ...]:
        up = above[node_labels[n]]
        if n in forced_nodes:
            cand = forced_nodes[n]
            return (cand,) if cod_nlab[cand] in up else ()
        pool = allowed_nodes if allowed_nodes is not None else cod.nodes
        return tuple(c for c in sorted(pool) if cod_nlab[c] in up)

    candidates = {n: base_node_targets(n) for n in dom.nodes}

    def edge_targets(e: str, nm: dict[str, str]) -> tuple[str, ...]:
        up = above[edge_labels[e]]
        if e in forced_edges:
            cand = forced_edges[e]
            if (cod_src[cand] != nm[dom_src[e]] or cod_tgt[cand] != nm[dom_tgt[e]]
                    or cod_elab[cand] not in up):
                return ()
            return (cand,)
        pool = allowed_edges if allowed_edges is not None else cod.edges
        return tuple(c for c in cod.edges_between(nm[dom_src[e]], nm[dom_tgt[e]])
                     if c in pool and cod_elab[c] in up)

    if lex:
        nodes = list(dom.sorted_nodes)
    else:
        nodes = sorted(dom.sorted_nodes, key=lambda n: (len(candidates[n]), n))
    edges = list(dom.sorted_edges)
    incident = dom.incident_edges

    # Anchor: an edge from a node with several candidates to one placed
    # earlier.  The node's image must then be a neighbour of the anchor's
    # image, so only those neighbours that are static candidates are tried.
    anchors: dict[str, tuple[str, bool]] = {}
    placed: set[str] = set()
    for n in nodes:
        if len(candidates[n]) > 1:
            for e in incident[n]:
                s, t = dom_src[e], dom_tgt[e]
                if s in placed:
                    anchors[n] = (s, True)
                    break
                if t in placed:
                    anchors[n] = (t, False)
                    break
        placed.add(n)
    candidate_sets = {n: frozenset(candidates[n]) for n in anchors}
    cod_incident = cod.incident_edges

    def node_targets(n: str, nm: dict[str, str]) -> Sequence[str]:
        anchor = anchors.get(n)
        if anchor is None:
            return candidates[n]
        p, outgoing = anchor
        image = nm[p]
        static = candidate_sets[n]
        if outgoing:
            near = {cod_tgt[c] for c in cod_incident[image] if cod_src[c] == image}
        else:
            near = {cod_src[c] for c in cod_incident[image] if cod_tgt[c] == image}
        return sorted(near & static)

    def assign_edges(i: int, nm: dict[str, str], em: dict[str, str],
                     used_edges: set[str]) -> Iterator[GraphMorphism]:
        if i == len(edges):
            yield GraphMorphism(dom, cod, dict(nm), dict(em))
            return
        e = edges[i]
        for c in edge_targets(e, nm):
            if injective and c in used_edges:
                continue
            em[e] = c
            used_edges.add(c)
            yield from assign_edges(i + 1, nm, em, used_edges)
            used_edges.discard(c)
            del em[e]

    def assign_nodes(i: int, nm: dict[str, str], used: set[str]) -> Iterator[GraphMorphism]:
        if i == len(nodes):
            yield from assign_edges(0, nm, {}, set())
            return
        n = nodes[i]
        for c in node_targets(n, nm):
            if injective and c in used:
                continue
            nm[n] = c
            # Only edges closed off by this assignment need a viability look.
            ok = True
            for e in incident[n]:
                if dom_src[e] in nm and dom_tgt[e] in nm and not edge_targets(e, nm):
                    ok = False
                    break
            if ok:
                used.add(c)
                yield from assign_nodes(i + 1, nm, used)
                used.discard(c)
            del nm[n]

    yield from assign_nodes(0, {}, set())


def enumerate_homomorphisms(g: LabeledGraph, h: LabeledGraph,
                            injective: bool = False) -> list[GraphMorphism]:
    """All structure- and label-respecting morphisms ``g -> h``.

    Returned in lexicographic order of the node assignment (then the edge
    assignment).  The injective flag restricts to injections on both nodes
    and edges.
    """
    if g.lattice != h.lattice:
        raise LatticeError("homomorphism enumeration needs a shared lattice")
    found = list(_hom_search(g, h, injective))
    found.sort(key=lambda f: (tuple(sorted(f.node_map.items())),
                              tuple(sorted(f.edge_map.items()))))
    return found


def check_strong_match(t_l: GraphMorphism, alpha: GraphMorphism) -> Optional[Match]:
    """Decide whether ``alpha`` establishes a strong match for ``t_l``.

    Computes the pullback of ``(alpha, t_l)`` and checks that the
    projection onto the pattern is a label-exact bijection; the other
    projection composed with its inverse is the induced match morphism.
    """
    if alpha.cod != t_l.cod:
        raise MorphismError("typing-mismatch: adherence and typing target different graphs")
    if not t_l.is_injective():
        raise MorphismError("not-injective: context typings must be injective")
    L = t_l.dom
    G = alpha.dom
    pb = pullback(Cospan(alpha, t_l))
    proj_g, proj_l = pb.left_leg, pb.right_leg
    if len(pb.object.nodes) != len(L.nodes) or len(pb.object.edges) != len(L.edges):
        return None
    if not proj_l.is_injective():
        return None
    for nid in pb.object.nodes:
        if pb.object.node_labels[nid] != L.node_labels[proj_l.node_map[nid]]:
            return None
    for eid in pb.object.edges:
        if pb.object.edge_labels[eid] != L.edge_labels[proj_l.edge_map[eid]]:
            return None
    inv_nodes = {v: k for k, v in proj_l.node_map.items()}
    inv_edges = {v: k for k, v in proj_l.edge_map.items()}
    m = GraphMorphism(
        L, G,
        {l: proj_g.node_map[inv_nodes[l]] for l in L.nodes},
        {e: proj_g.edge_map[inv_edges[e]] for e in L.edges})
    # Injective typing forces an injective match morphism.
    assert m.is_injective(), "strong match produced a non-injective match morphism"
    return Match(m=m, alpha=alpha, typing=t_l)


def _adherences_for(m: GraphMorphism, t_l: GraphMorphism,
                    g: LabeledGraph) -> Iterator[GraphMorphism]:
    """Adherences compatible with ``m``: the pattern image is pinned onto the
    typed pattern, everything else must land in the context part."""
    l_prime = t_l.cod
    pattern_nodes = frozenset(t_l.node_map.values())
    pattern_edges = frozenset(t_l.edge_map.values())
    context_nodes = l_prime.nodes - pattern_nodes
    context_edges = l_prime.edges - pattern_edges
    forced_nodes = {m.node_map[l]: t_l.node_map[l] for l in t_l.dom.nodes}
    forced_edges = {m.edge_map[e]: t_l.edge_map[e] for e in t_l.dom.edges}
    yield from _hom_search(
        g, l_prime, injective=False,
        allowed_nodes=context_nodes, allowed_edges=context_edges,
        forced_nodes=forced_nodes, forced_edges=forced_edges, lex=True)


def iter_matches(rule: "PbpoRule", g: LabeledGraph,
                 check_rule: bool = True) -> Iterator[Match]:
    """Strong matches in ascending :meth:`Match.sort_key` order, lazily.

    ``check_rule=False`` skips rule validation; drivers that validate the
    rule set once up front use it to avoid repeating the work per step.
    """
    if check_rule:
        from .rewriting import validate_rule

        rule_report = validate_rule(rule)
        if not rule_report.ok:
            raise RuleError(f"invalid-rule: {rule_report}")
    if g.lattice != rule.L.lattice:
        raise LatticeError("host graph must share the rule lattice")
    for m in _hom_search(rule.L, g, injective=True, lex=True):
        for alpha in _adherences_for(m, rule.tL, g):
            match = check_strong_match(rule.tL, alpha)
            if match is not None and match.m == m:
                yield match


def find_matches(rule: "PbpoRule", g: LabeledGraph,
                 check_rule: bool = True) -> list[Match]:
    """All strong matches of the rule pattern in ``g``, deterministically ordered."""
    matches = list(iter_matches(rule, g, check_rule=check_rule))
    matches.sort(key=Match.sort_key)
    return matches


def naive_find_matches(rule: "PbpoRule", g: LabeledGraph) -> list[Match]:
    """Reference implementation: filter every adherence through the strong
    match check.  Exponential in host size; used to cross-check
    :func:`find_matches` on small instances."""
    matches = []
    for alpha in enumerate_homomorphisms(g, rule.Lp):
        match = check_strong_match(rule.tL, alpha)
        if match is not None:
            matches.append(match)
    matches.sort(key=Match.sort_key)
    return matches


def verify_match_square(match: Match) -> bool:
    """Re-check the defining pullback square of a strong match."""
    square_ok = is_pullback_square(
        Cospan(match.alpha, match.typing),
        Span(match.m, identity(match.typing.dom)))
    commutes = compose(match.m, match.alpha).node_map == match.typing.node_map \
        and compose(match.m, match.alpha).edge_map == match.typing.edge_map
    return square_ok and commutes
