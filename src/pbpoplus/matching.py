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
match check (that naive route lives in the test suite, for
cross-checking), but stays fast when the host has many interchangeable
pattern occurrences.

One backtracking search serves plain enumeration, adherence extension and
the mediator enumeration of :mod:`~pbpoplus.limits`; callers confine
elements through per-element candidate maps.  It places nodes one at a
time.  A node with several candidates that is joined by an edge to a node
placed earlier is anchored on it: only the neighbours of the anchor's
image, in the edge's direction, are tried, intersected with the node's
label-compatible candidates and sorted.  Anchoring only skips candidates
that could never complete the edge, so results and their order are those
of the plain search; it is the unrooted form of rooted matching in GP 2
(Bak & Plump, 2012).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Iterator, Mapping, Optional, Sequence

from .errors import LatticeError, MorphismError, NonCommutingSquareError
from .graph import GraphMorphism, LabeledGraph, identity
from .limits import (Cospan, Span, _is_exact_bijection, is_pullback_square,
                     pullback)

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
                node_pools: Optional[Mapping[str, Collection[str]]] = None,
                edge_pools: Optional[Mapping[str, Collection[str]]] = None,
                lex: bool = False) -> Iterator[GraphMorphism]:
    """Backtracking core shared by plain enumeration, adherence extension
    and mediator enumeration.

    ``node_pools``/``edge_pools`` map an element of ``dom`` to the elements
    of ``cod`` its image must come from; an element without an entry may go
    anywhere.  With ``lex`` the nodes are processed in id order and results
    come out lexicographically sorted by assignment; otherwise the
    most-constrained node goes first and callers sort.
    """
    above = dom.lattice._above
    node_pools = node_pools or {}
    edge_pools = edge_pools or {}
    node_labels, edge_labels = dom.node_labels, dom.edge_labels
    cod_nlab, cod_elab = cod.node_labels, cod.edge_labels
    cod_src, cod_tgt = cod.src, cod.tgt
    dom_src, dom_tgt = dom.src, dom.tgt
    cod_edges = cod.edges

    # Nodes that share a pool and a label share their candidates.
    shared: dict[tuple[int, str], tuple[str, ...]] = {}

    def base_node_targets(n: str) -> tuple[str, ...]:
        pool = node_pools[n] if n in node_pools else cod.sorted_nodes
        key = (id(pool), node_labels[n])
        if key not in shared:
            up = above[node_labels[n]]
            shared[key] = tuple(c for c in sorted(pool) if cod_nlab.get(c) in up)
        return shared[key]

    candidates = {n: base_node_targets(n) for n in dom.nodes}

    def edge_targets(e: str, nm: dict[str, str]) -> tuple[str, ...]:
        up = above[edge_labels[e]]
        pool = edge_pools[e] if e in edge_pools else cod_edges
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
    if not _is_exact_bijection(pb.object, L, proj_l.node_map, proj_l.edge_map):
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
    node_pools: dict[str, Collection[str]] = dict.fromkeys(
        g.nodes, l_prime.nodes - t_l.node_image())
    node_pools.update((m.node_map[l], (t,)) for l, t in t_l.node_map.items())
    edge_pools: dict[str, Collection[str]] = dict.fromkeys(
        g.edges, l_prime.edges - t_l.edge_image())
    edge_pools.update((m.edge_map[e], (t,)) for e, t in t_l.edge_map.items())
    yield from _hom_search(g, l_prime, False, node_pools, edge_pools, lex=True)


def iter_matches(rule: "PbpoRule", g: LabeledGraph,
                 check_rule: bool = True) -> Iterator[Match]:
    """Strong matches in ascending :meth:`Match.sort_key` order, lazily.

    ``check_rule=False`` skips the rule check.  The rule's validation
    report is kept on the rule, so after the first call the check is a
    lookup either way.
    """
    if check_rule:
        from .rewriting import _require_valid_rule

        _require_valid_rule(rule)
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


def verify_match_square(match: Match) -> bool:
    """Whether ``alpha . m = typing`` and that square is a pullback.

    A square that does not commute is a negative answer; invalid or
    mismatched morphisms raise :class:`~pbpoplus.errors.SquareError`."""
    try:
        return is_pullback_square(Cospan(match.alpha, match.typing),
                                  Span(match.m, identity(match.typing.dom)))
    except NonCommutingSquareError:
        return False
