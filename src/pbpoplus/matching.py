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

One backtracking search serves plain enumeration, adherence extension,
the mediator enumeration of :mod:`~pbpoplus.limits` and the isomorphism
search of :mod:`~pbpoplus.graph`; callers confine elements through
per-element candidate maps.  It starts with a forced pass: every node with
exactly one candidate (after pools and labels) is placed, and every edge
between placed nodes gets its targets, once for all results; edges with
the same pool, label and endpoint images share them.
A node or edge without candidates, or two forced elements on one image
under injectivity, ends the search there.  A non-injective search
(adherences and mediators, into a rule-sized codomain) then narrows the
candidates of the endpoints of each open edge to those that some target
of the edge starts or ends at, until none goes; an open edge with no
target ends the search before any backtracking.  Without this, a search
in id order can place many isolated nodes before the endpoint that cannot
close an edge, and try every combination of them first.

The open nodes, then the open edges, are tried one at a time on one
explicit stack of candidate iterators, so the depth of the search is not
bounded by the interpreter's recursion limit.  An open node's candidates
are joined: they are the neighbours, by edge label and direction, of the
images of all its placed neighbours, intersected while two or more remain.
A later neighbour that its own placed neighbours leave with one candidate
then narrows them to that image's neighbours, or ends the branch when it is
left with none (the look ahead).  A node with no placed neighbour keeps
only the neighbours of a later neighbour's candidates when those are fewer
than its own.  Each of these removes only candidates that no result uses,
so results and their order are those of the plain search (see "The join"
in ``docs/DESIGN.md``); this is the unrooted form of rooted matching in GP 2
(Bak & Plump, 2012), where an element whose image is forced costs no
search.  What depends on the pattern alone (each open node's links, look
aheads and closing edges, and the nodes without links) is derived once per
pattern and tuple of open nodes and kept on the pattern graph; a search from
a host (adherences, mediators, isomorphism) builds its plan and drops it.

An adherence at an occurrence ``m`` is built, not searched, when the
context part of ``L'`` is a *sink*, one node ``c`` with one loop ``cc``,
as in every BDD rule: a host node off ``m(L)`` then has the one candidate
``c`` and an edge between two such nodes the one candidate ``cc``, set in
bulk, so only ``m(L)`` and the edges there are decided one by one.  A host
label not below ``c``'s or ``cc``'s, or an edge at ``m(L)`` with several
candidates, is left to the search (see :func:`_adherences_for`).

The same search answers the rooted existence query of
:func:`~pbpoplus.rewriting.normalize`: whether a pattern occurs through
one of a set of seed elements.  Each seed is one search with the seed
pinned, so the anchored nodes around it are found among its neighbours.

The strong-match square is decided by counting, with no pullback built
(the counting lemma of :mod:`~pbpoplus.limits`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING, Collection, Iterator, Mapping, Optional, Sequence

from . import rewriting  # a cycle: rewriting imports this module; read at call time only
from .errors import (GraphError, LatticeError, MorphismError, NonCommutingSquareError, Report,
                     RuleError)
from .graph import GraphMorphism, LabeledGraph, _require_type, _require_valid, identity
from .limits import Cospan, Span, _commutes, _is_pullback_sort, is_pullback_square
from .stepcheck import _check_square

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

    @cached_property
    def _report(self) -> Report:
        """Whether ``m`` and ``alpha`` are valid and the match square ``alpha
        . m = typing`` a pullback, decided on first use and kept; the three
        morphisms must connect ``L``, the host and ``L'``.  A commuting square
        is a pullback exactly when :func:`check_strong_match` accepts
        ``alpha``, since a pullback leaves one host element over each element
        of ``typing(L)``, and so no other ``m`` for the square to commute
        with.  :func:`iter_matches` stores an ok report on each match it
        yields, having just decided all of this."""
        report = Report()
        for name in ("m", "alpha"):
            report.extend(getattr(self, name)._report, prefix=f"{name}: ")
        if report.ok:
            _check_square(report, _commutes(self.m, self.alpha, self.typing.dom._identity,
                                            self.typing),
                          lambda: check_strong_match(self.typing, self.alpha) is not None,
                          ("match-square", "alpha . m differs from tL"),
                          ("match-square", "the strong-match square is not a pullback"))
        return report


def _search_plan(dom: LabeledGraph, rest: tuple[str, ...]) -> tuple:
    """The part of a search from ``dom`` with the open nodes ``rest`` that
    depends on nothing else, kept on a pattern (:attr:`LabeledGraph._plans`):
    ``(links, ahead, closing, roots)``, the first three indexed by open-node
    position.  A link ``(i, p, outgoing, label)`` says that the node's image
    is a neighbour of ``p``'s, out of it when ``outgoing``, along an edge
    above ``label``; ``p`` is placed at position ``i``, or forced when ``i``
    is -1.  A node's links are sorted by ``i``, so those placed before a
    given position are a prefix.  An entry ``(j, k, outgoing, label)`` of
    ``ahead`` is a link from the later open node ``j``, the first ``k`` of
    whose links are placed before this node.  ``closing`` holds the edges
    that placing the node closes, and ``roots`` each open node without
    links, with its links from later open nodes.  Built in one pass over
    each node's edges and one over the links."""
    src, tgt, labels, incident = dom.src, dom.tgt, dom.edge_labels, dom.incident_edges
    pos = dict.fromkeys(dom.nodes, -1)
    pos.update(zip(rest, range(len(rest))))
    links, closing = [], []
    for i, n in enumerate(rest):
        found, shut = [], []
        for e in incident[n]:
            s = src[e]
            p = tgt[e] if s == n else s
            if pos[p] <= i:
                shut.append(e)
                if p != n:
                    found.append((pos[p], p, p == s, labels[e]))
        links.append(tuple(sorted(set(found)) if len(found) > 1 else found))
        closing.append(tuple(shut))
    ahead: dict[int, list] = {}
    later: dict[int, list] = {}
    for j, found in enumerate(links):
        k = start = -1
        for m, (i, _, outgoing, label) in enumerate(found):
            if i != start:
                k, start = m, i
            if i >= 0:
                if k:
                    ahead.setdefault(i, []).append((j, k, not outgoing, label))
                if not links[i]:
                    later.setdefault(i, []).append((j, not outgoing, label))
    return (tuple(links), tuple(tuple(ahead.get(i, ())) for i in range(len(rest))),
            tuple(closing), tuple((i, tuple(x)) for i, x in sorted(later.items())))


def _hom_search(dom: LabeledGraph, cod: LabeledGraph, injective: bool,
                node_pools: Optional[Mapping[str, Collection[str]]] = None,
                edge_pools: Optional[Mapping[str, Collection[str]]] = None,
                keep_plan: bool = False) -> Iterator[GraphMorphism]:
    """Backtracking core shared by plain enumeration, adherence extension,
    mediator enumeration and the isomorphism search.

    ``node_pools``/``edge_pools`` map an element of ``dom`` to the elements
    of ``cod`` its image must come from; an element without an entry may go
    anywhere.  Nodes are taken in id order and candidates in id order, so
    results come out in lexicographic order of the node assignment, then
    the edge assignment.  Nodes with a single candidate, and edges between
    them with a single target, are placed before the search and take part
    in no backtracking; the open nodes, then the open edges, are tried on
    one explicit stack, so its depth is not bounded by the interpreter's
    recursion limit.  With ``keep_plan`` the plan for the open nodes is
    kept on ``dom``; only a search from a pattern asks for that, since a
    search from a host pins different nodes each time and would leave a
    host-sized plan behind on every call.
    """
    above = dom.lattice._above
    node_pools = node_pools or {}
    edge_pools = edge_pools or {}
    node_labels, edge_labels = dom.node_labels, dom.edge_labels
    cod_nlab, cod_elab = cod.node_labels, cod.edge_labels
    cod_src, cod_tgt = cod.src, cod.tgt
    dom_src, dom_tgt = dom.src, dom.tgt
    cod_nodes, cod_edges = cod.sorted_nodes, cod.edges

    # Nodes that share a pool and a label share their candidates.
    shared: dict[tuple[int, str], tuple[str, ...]] = {}
    candidates: dict[str, tuple[str, ...]] = {}
    for n in dom.nodes:
        label = node_labels[n]
        pool = node_pools.get(n, cod_nodes)
        key = (id(pool), label)
        found = shared.get(key)
        if found is None:
            up = above[label]
            ordered = pool if pool is cod_nodes else sorted(pool)  # already sorted
            found = shared[key] = tuple(c for c in ordered if cod_nlab.get(c) in up)
        candidates[n] = found

    # Edges that share a pool, a label and endpoint images share their
    # targets.
    shared_targets: dict[tuple, tuple[str, ...]] = {}

    def edge_targets(e: str) -> tuple[str, ...]:
        s, t = nm[dom_src[e]], nm[dom_tgt[e]]
        pool = edge_pools.get(e, cod_edges)
        key = (id(pool), edge_labels[e], s, t)
        found = shared_targets.get(key)
        if found is None:
            up = above[edge_labels[e]]
            found = shared_targets[key] = tuple(
                c for c in cod.edges_between(s, t) if c in pool and cod_elab[c] in up)
        return found

    nodes, edges = dom.sorted_nodes, dom.sorted_edges

    # Forced pass: a node with one candidate is placed, and an edge between
    # placed nodes gets its targets, once for every result.  The maps are
    # keyed in result order from the start, so results list them as the
    # search visits them.
    nm: dict[str, Optional[str]] = dict.fromkeys(nodes)
    used: set[str] = set()
    open_nodes: list[str] = []
    for n in nodes:
        cands = candidates[n]
        if len(cands) != 1:
            if not cands:
                return
            open_nodes.append(n)
            continue
        c = cands[0]
        if injective:
            if c in used:
                return
            used.add(c)
        nm[n] = c
    rest = tuple(open_nodes)
    plan = dom._plans.get(rest) if keep_plan else None
    if plan is None:
        plan = _search_plan(dom, rest)
        if keep_plan:
            dom._plans[rest] = plan
    links, ahead, closing, roots = plan
    em: dict[str, Optional[str]] = dict.fromkeys(edges)
    used_edges: set[str] = set()
    open_edges: list[str] = []
    for e in edges:
        if nm[dom_src[e]] is None or nm[dom_tgt[e]] is None:
            open_edges.append(e)
            continue
        targets = edge_targets(e)
        if len(targets) != 1:
            if not targets:
                return
            open_edges.append(e)
            continue
        c = targets[0]
        if injective:
            if c in used_edges:
                return
            used_edges.add(c)
        em[e] = c
    # The codomain of a non-injective search is rule-sized: an open edge with
    # no target between its endpoints' candidates ends the search before any
    # backtracking, and an endpoint keeps only the candidates that some
    # target starts or ends at, until no candidate goes.
    narrowed = not injective and bool(open_edges)
    while narrowed:
        narrowed = False
        for e in open_edges:
            starts, ends = (candidates[n] if nm[n] is None else (nm[n],)
                            for n in (dom_src[e], dom_tgt[e]))
            up = above[edge_labels[e]]
            targets = [c for c in edge_pools.get(e, cod_edges) if cod_elab[c] in up
                       and cod_src[c] in starts and cod_tgt[c] in ends]
            if not targets:
                return
            for n, images in ((dom_src[e], cod_src), (dom_tgt[e], cod_tgt)):
                if nm[n] is None:
                    hit = {images[c] for c in targets}
                    kept = tuple(c for c in candidates[n] if c in hit)
                    if len(kept) < len(candidates[n]):
                        candidates[n] = kept
                        narrowed = True

    cod_incident, every = cod.incident_edges, len(cod_nodes)

    def near(image: str, outgoing: bool, label: str) -> set[str]:
        # The neighbours of ``image`` along edges above ``label``, out of it
        # when ``outgoing``, else into it.
        up = above[label]
        ends, far = (cod_src, cod_tgt) if outgoing else (cod_tgt, cod_src)
        return {far[c] for c in cod_incident[image] if ends[c] == image and cod_elab[c] in up}

    # A node without links keeps only the neighbours of a later neighbour's
    # candidates, when those are fewer than its own.
    for i, later in roots:
        n = rest[i]
        for j, outgoing, label in later:
            cands, theirs = candidates[n], candidates[rest[j]]
            if len(theirs) < len(cands):
                hood = set().union(*(near(w, outgoing, label) for w in theirs))
                candidates[n] = tuple(sorted(hood if len(cands) == every
                                             else hood.intersection(cands)))
                if not candidates[n]:
                    return

    # A linked node's candidates are kept as a set, shared by nodes with one
    # candidate tuple, unless they are every node of ``cod``.
    shared_sets: dict[int, frozenset[str]] = {}
    static: list[Optional[frozenset[str]]] = []
    for n, from_placed, from_later in zip(rest, links, ahead):
        cands = candidates[n]
        if (from_placed or from_later) and len(cands) < every:
            found_set = shared_sets.get(id(cands))
            if found_set is None:
                found_set = shared_sets[id(cands)] = frozenset(cands)
            static.append(found_set)
        else:
            static.append(None)

    def node_targets(i: int) -> Sequence[str]:
        # The join: the candidates among the neighbours of every placed
        # neighbour's image, then of the one image a later neighbour is left
        # with, intersected only while two or more remain.
        found = given = static[i]
        for _, p, outgoing, label in links[i]:
            hood = near(nm[p], outgoing, label)
            found = hood if found is None else hood & found
            if len(found) < 2:
                return sorted(found)
        for j, k, outgoing, label in ahead[i]:
            (_, p, into, via), *more = links[j][:k]
            theirs = near(nm[p], into, via)
            for _, p, into, via in more:
                if len(theirs) < 2:
                    break
                theirs = theirs & near(nm[p], into, via)
            if len(theirs) != 1:
                if not theirs:
                    return ()
                continue
            (image,) = theirs
            if injective and image in used or static[j] is not None and image not in static[j]:
                return ()
            hood = near(image, outgoing, label)
            found = hood if found is None else hood & found
            if len(found) < 2:
                break
        return candidates[rest[i]] if found is given else sorted(found)

    # One slot per open element: the open nodes in id order, then the open
    # edges in id order, each with its image map, its injectivity set and
    # the edges its placement closes, in lists indexed by depth.
    width = len(rest)
    elems = [*rest, *open_edges]
    images = [nm] * width + [em] * len(open_edges)
    taken = [used] * width + [used_edges] * len(open_edges)
    closing = [*closing, *[()] * len(open_edges)]
    depth = len(elems)
    if not depth:
        yield GraphMorphism(dom, cod, nm, em)
        return
    stack = [iter(node_targets(0) if width else edge_targets(elems[0]))]
    while stack:
        i = len(stack) - 1
        x, image, seen = elems[i], images[i], taken[i]
        for c in stack[i]:
            if injective and c in seen:
                continue
            image[x] = c
            for e in closing[i]:
                if not edge_targets(e):
                    break
            else:
                break  # every edge this placement closes has a target
        else:
            stack.pop()
            if injective and i:
                taken[i - 1].discard(images[i - 1][elems[i - 1]])
            continue
        if i + 1 == depth:
            yield GraphMorphism(dom, cod, dict(nm), dict(em))
            continue
        if injective:
            seen.add(c)
        i += 1
        stack.append(iter(node_targets(i) if i < width else edge_targets(elems[i])))


def enumerate_homomorphisms(g: LabeledGraph, h: LabeledGraph,
                            injective: bool = False) -> list[GraphMorphism]:
    """All structure- and label-respecting morphisms ``g -> h``.

    Returned in the search's order: lexicographic in the node assignment,
    nodes taken in id order, then in the edge assignment.  The injective
    flag restricts to injections on both nodes and edges.  A malformed
    graph raises ``invalid-graph``.
    """
    if g.lattice != h.lattice:
        raise LatticeError("homomorphism enumeration needs a shared lattice")
    _require_valid(GraphError, "invalid-graph", ("g", g), ("h", h))
    return list(_hom_search(g, h, injective))


def check_strong_match(t_l: GraphMorphism, alpha: GraphMorphism) -> Optional[Match]:
    """Decide whether ``alpha`` establishes a strong match for ``t_l``.

    The match morphism sends each pattern element to the host element typed
    like it; it exists when each element of ``t_l(L)`` has a preimage under
    ``alpha``, and the square it closes commutes.  That square is a
    pullback when its pairs ``(m(l), l)`` are as many as the host elements
    over ``t_l(L)`` (``t_l`` is injective) and each ``l`` is labelled with
    the meet of its pair's labels (the counting lemma of
    :mod:`~pbpoplus.limits`); the pairs are distinct, and ``m`` is then
    injective.
    """
    if alpha.cod != t_l.cod:
        raise MorphismError("typing-mismatch: adherence and typing target different graphs")
    if not t_l.is_injective():
        raise MorphismError("not-injective: context typings must be injective")
    maps, sizes = [], []
    for a_map, t_map in ((alpha.node_map, t_l.node_map), (alpha.edge_map, t_l.edge_map)):
        image = set(t_map.values())
        over = list(compress(a_map, map(image.__contains__, a_map.values())))
        typed_as = dict(zip(map(a_map.__getitem__, over), over))
        if len(typed_as) < len(image):
            return None
        maps.append({l: typed_as[t] for l, t in t_map.items()})
        sizes.append(len(over))
    m, pattern = GraphMorphism(t_l.dom, alpha.dom, *maps), t_l.dom._identity
    if not (_is_pullback_sort(m, pattern, False, sizes[0])
            and _is_pullback_sort(m, pattern, True, sizes[1])):
        return None
    return Match(m=m, alpha=alpha, typing=t_l)


def _adherences_for(m: GraphMorphism, rule: "PbpoRule",
                    g: LabeledGraph) -> Iterator[GraphMorphism]:
    """Adherences compatible with ``m``: the pattern image is pinned onto the
    typed pattern, everything else must land in the context part.  At a
    sink (see the module docstring) an edge at a pin has as candidates its
    pattern image, if it has one, else the context edges between its
    endpoints' images; a pin or such an edge without one means no
    adherence, and one with several is left to the search."""
    t_l, l_prime = rule.tL, rule.Lp
    sink = rule._sink
    if (sink is not None and rule._context_labels.issuperset(g.node_labels.values())
            and sink[2].issuperset(g.edge_labels.values())):
        c, cc, _, pattern_edges = sink
        above, lp_nlab, lp_elab = g.lattice._above, l_prime.node_labels, l_prime.edge_labels
        nm = dict.fromkeys(g.sorted_nodes, c)
        pins = {m.node_map[l]: t for l, t in t_l.node_map.items()}
        for n, t in pins.items():
            if lp_nlab[t] not in above[g.node_labels[n]]:
                return
            nm[n] = t
        em = dict.fromkeys(g.sorted_edges, cc)
        edge_pins = {m.edge_map[e]: t for e, t in t_l.edge_map.items()}
        incident = g.incident_edges
        for e in {e for n in pins for e in incident[n]}:
            pin, up = edge_pins.get(e), above[g.edge_labels[e]]
            targets = [x for x in l_prime.edges_between(nm[g.src[e]], nm[g.tgt[e]])
                       if (x == pin if pin is not None else x not in pattern_edges)
                       and lp_elab[x] in up]
            if len(targets) != 1:
                if not targets:
                    return
                break
            em[e] = targets[0]
        else:
            yield GraphMorphism(g, l_prime, nm, em)
            return
    node_pools: dict[str, Collection[str]] = dict.fromkeys(
        g.nodes, l_prime.nodes - t_l.node_image())
    node_pools.update((m.node_map[l], (t,)) for l, t in t_l.node_map.items())
    edge_pools: dict[str, Collection[str]] = dict.fromkeys(
        g.edges, l_prime.edges - t_l.edge_image())
    edge_pools.update((m.edge_map[e], (t,)) for e, t in t_l.edge_map.items())
    yield from _hom_search(g, l_prime, False, node_pools, edge_pools)


def iter_matches(rule: "PbpoRule", g: LabeledGraph,
                 occurs: Optional[list[bool]] = None) -> Iterator[Match]:
    """Strong matches in ascending :meth:`Match.sort_key` order, lazily.

    A host node whose label fits no context node of ``L'`` can only be
    typed onto the pattern, so every strong match covers it.  Such nodes
    are found once per call, only when some label fits no context node (a
    context node labelled top takes every host node): more of them than
    the pattern has nodes rule out every match at once, and an occurrence
    that misses one gets no adherence search.

    The rule's validation report is kept on the rule, so after the first
    call the rule check is a lookup.  Each match yielded carries an ok
    :attr:`Match._report`: ``m`` and ``alpha`` are valid as built (the
    searches and the sink builder admit an image only where its label is
    above and its endpoints are the mapped ones), and
    :func:`check_strong_match` has just accepted the square.  A list given
    as ``occurs`` gets, once the matches run out, whether the pattern
    occurs in ``g`` at all; only when every match is ruled out at once is
    that one more search.
    """
    _require_valid(RuleError, "invalid-rule", (rule.name, rule))
    if g.lattice != rule.L.lattice:
        raise LatticeError("host graph must share the rule lattice")
    occurrences = _hom_search(rule.L, g, injective=True, keep_plan=True)
    fits, pinned = rule._context_labels, ()
    if len(fits) < len(g.lattice.elements):
        pinned = {n for n in g.nodes if g.node_labels[n] not in fits}
        if len(pinned) > len(rule.L.nodes):
            if occurs is not None:
                occurs.append(next(occurrences, None) is not None)
            return
    occurred = False
    for m in occurrences:
        occurred = True
        if pinned and not pinned.issubset(m.node_map.values()):
            continue
        for alpha in _adherences_for(m, rule, g):
            match = check_strong_match(rule.tL, alpha)
            if match is not None and match.m == m:
                match.__dict__["_report"] = Report()
                yield match
    if occurs is not None:
        occurs.append(occurred)


def _first_match(rule: "PbpoRule", g: LabeledGraph) -> tuple[Optional[Match], bool]:
    """The first strong match of :func:`iter_matches`, and whether the
    pattern occurs in ``g`` at all (has an injective homomorphism into it).

    A strong match is an occurrence; a scan that finds none has run the
    pattern search to its end and reports whether it produced one."""
    occurs: list[bool] = []
    match = next(iter_matches(rule, g, occurs=occurs), None)
    return match, match is not None or occurs[0]


def _occurs_at(pattern: LabeledGraph, g: LabeledGraph,
               nodes: Collection[str], edges: Collection[str]) -> bool:
    """Whether some injective homomorphism ``pattern -> g`` has one of the
    seed ``nodes`` or ``edges`` in its image; seeds that are not elements of
    ``g`` are ignored.

    Each seed is one search, pinned where the seed can lie: a node under a
    pattern node whose label it can hold, an edge under a pattern edge of
    its loop shape whose labels and endpoint labels it can hold (with both
    endpoints pinned as well).  An edge with a seed node as an endpoint
    needs no search of its own: an occurrence through it is one through
    that node."""
    above = pattern.lattice._above
    p_nlab, p_elab, p_src, p_tgt = (pattern.node_labels, pattern.edge_labels,
                                    pattern.src, pattern.tgt)
    g_nlab, g_elab, g_src, g_tgt = g.node_labels, g.edge_labels, g.src, g.tgt
    seeds = [c for c in nodes if c in g_nlab]
    for c in seeds:
        lab = g_nlab[c]
        for p in pattern.sorted_nodes:
            if lab in above[p_nlab[p]] and next(_hom_search(
                    pattern, g, True, {p: (c,)}, keep_plan=True), None) is not None:
                return True
    if not pattern.edges:
        return False
    seeded = frozenset(seeds)
    for c in edges:
        if c not in g_elab:
            continue
        s, t = g_src[c], g_tgt[c]
        if s in seeded or t in seeded:
            continue
        lab, s_lab, t_lab = g_elab[c], g_nlab[s], g_nlab[t]
        for e in pattern.sorted_edges:
            ps, pt = p_src[e], p_tgt[e]
            if ((ps == pt) != (s == t) or lab not in above[p_elab[e]]
                    or s_lab not in above[p_nlab[ps]] or t_lab not in above[p_nlab[pt]]):
                continue
            pools = {ps: (s,), pt: (t,)}
            if next(_hom_search(pattern, g, True, pools, {e: (c,)}, keep_plan=True),
                    None) is not None:
                return True
    return False


def find_matches(rule: "PbpoRule", g: LabeledGraph) -> list[Match]:
    """All strong matches of the rule pattern in ``g``, in ascending
    :meth:`Match.sort_key` order, which is the order :func:`iter_matches`
    yields them in."""
    _require_type(RuleError, "invalid-rule", rewriting.PbpoRule, rule)
    _require_type(GraphError, "invalid-graph", LabeledGraph, g)
    return list(iter_matches(rule, g))


def verify_match_square(match: Match) -> bool:
    """Whether ``alpha . m = typing`` and that square is a pullback.

    A square that does not commute is a negative answer; invalid or
    mismatched morphisms raise :class:`~pbpoplus.errors.SquareError`."""
    try:
        return is_pullback_square(Cospan(match.alpha, match.typing),
                                  Span(match.m, identity(match.typing.dom)))
    except NonCommutingSquareError:
        return False
