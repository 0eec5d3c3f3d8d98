"""ToyPO, ToyPB, and PBPO+ rewrite steps, rule handling, and normalization.

A PBPO+ step edits the host's maps where the rule acts on it (the
plain-fibre lemma) and is checked at its patch (the patch lemma);
:func:`normalize` searches a rule whose pattern did not occur only through
the ids changed since (negative certificates).  See ``docs/DESIGN.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .errors import (EngineError, GraphError, InternalMediatorError, MorphismError, Report,
                     RuleError, StrongMatchError)
from .graph import (GraphMorphism, LabeledGraph, _carry_indexes, _map, _require_type,
                    _require_valid, _sort)
from .limits import (Cospan, Span, _commutes, _is_pullback_sort, _UnionFind, pullback,
                     pushout)
from .matching import Match, _first_match, _occurs_at
from .stepcheck import (_acted, _apply, _check_square, _check_step, _graph, _identity_on,
                        _plain_over, _require_graph)


@dataclass(frozen=True)
class ToyPoRule:
    """A single morphism ``rho : L -> R``; applied by gluing."""

    rho: GraphMorphism

    @property
    def L(self) -> LabeledGraph:
        return self.rho.dom

    @property
    def R(self) -> LabeledGraph:
        return self.rho.cod


@dataclass(frozen=True)
class ToyPbRule:
    """A single morphism ``rho : R' -> L'`` between type graphs; applied by
    pulling the typed host back along it."""

    rho: GraphMorphism

    @property
    def Lp(self) -> LabeledGraph:
        return self.rho.cod

    @property
    def Rp(self) -> LabeledGraph:
        return self.rho.dom


@dataclass(frozen=True)
class ToyPoTrace:
    rule: ToyPoRule
    m: GraphMorphism
    host: LabeledGraph
    result: LabeledGraph
    i_g: GraphMorphism
    i_r: GraphMorphism


@dataclass(frozen=True)
class ToyPbTrace:
    rule: ToyPbRule
    alpha: GraphMorphism
    host: LabeledGraph
    result: LabeledGraph
    i_g: GraphMorphism
    i_r: GraphMorphism


def toypo_step(rule: ToyPoRule, m: GraphMorphism) -> tuple[LabeledGraph, ToyPoTrace]:
    """Glue the rule replacement into the host at an injective match."""
    if m.dom != rule.L:
        raise MorphismError("domain-mismatch: match must start from the rule pattern")
    if not m.is_injective():
        raise MorphismError("not-injective: ToyPO matches must be injective")
    po = pushout(Span(m, rule.rho))
    trace = ToyPoTrace(rule=rule, m=m, host=m.cod, result=po.object,
                       i_g=po.left_leg, i_r=po.right_leg)
    return po.object, trace


def toypb_step(rule: ToyPbRule, alpha: GraphMorphism) -> tuple[LabeledGraph, ToyPbTrace]:
    """Retype the host along the rule; no injectivity is required of ``alpha``."""
    if alpha.cod != rule.Lp:
        raise MorphismError("typing-mismatch: adherence must target the rule type graph")
    pb = pullback(Cospan(alpha, rule.rho))
    trace = ToyPbTrace(rule=rule, alpha=alpha, host=alpha.dom, result=pb.object,
                       i_g=pb.left_leg, i_r=pb.right_leg)
    return pb.object, trace


@dataclass(frozen=True)
class PbpoRule:
    L: LabeledGraph
    K: LabeledGraph
    R: LabeledGraph
    Lp: LabeledGraph
    Kp: LabeledGraph
    l: GraphMorphism   # K -> L
    r: GraphMorphism   # K -> R
    tL: GraphMorphism  # L -> L'
    tK: GraphMorphism  # K -> K'
    lp: GraphMorphism  # K' -> L'
    name: str = ""

    @cached_property
    def _report(self) -> Report:
        """:func:`validate_rule` of this rule, computed on first use."""
        return validate_rule(self)

    @cached_property
    def _fibres(self) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
        """Nodes, then edges: the preimages under ``l'`` of each element of
        ``L'``, in id order.  A host element typed onto ``y`` has a copy in
        ``G_K`` for each element of the fibre of ``y``."""
        fibres = []
        for ids, lp_map, kp_ids in ((self.Lp.nodes, self.lp.node_map, self.Kp.sorted_nodes),
                                    (self.Lp.edges, self.lp.edge_map, self.Kp.sorted_edges)):
            by_image: dict[str, list[str]] = {x: [] for x in ids}
            for k in kp_ids:
                by_image[lp_map[k]].append(k)
            fibres.append({x: tuple(ks) for x, ks in by_image.items()})
        return fibres[0], fibres[1]

    @cached_property
    def _plain(self) -> tuple[dict[str, str], dict[str, str]]:
        """Nodes, then edges: each *plain* element of ``L'``, one whose
        ``l'``-fibre is a single element of ``K'`` with the same label,
        mapped to that element.  A host element typed onto a plain element
        passes through the deletion pullback unchanged (the plain-fibre
        lemma of ``docs/DESIGN.md``)."""
        plain = []
        for fibres, lp_labels, kp_labels in (
                (self._fibres[0], self.Lp.node_labels, self.Kp.node_labels),
                (self._fibres[1], self.Lp.edge_labels, self.Kp.edge_labels)):
            plain.append({x: ks[0] for x, ks in fibres.items()
                          if len(ks) == 1 and kp_labels[ks[0]] == lp_labels[x]})
        return plain[0], plain[1]

    @cached_property
    def _plain_context(self) -> tuple[bool, bool]:
        """Nodes, then edges: whether every element of ``L'`` outside
        ``tL(L)`` is plain (see :func:`~pbpoplus.stepcheck._acted`)."""
        return tuple(self._plain[edges].keys() >= _sort(self.Lp, edges)[0].difference(
            _map(self.tL, edges).values()) for edges in (False, True))

    @cached_property
    def _context_labels(self) -> frozenset[str]:
        """The labels a host node can carry and still be typed onto a
        context node of ``L'`` (one outside ``tL(L)``): those below the
        label of some context node.  A host node with any other label must
        be in the image of every strong match."""
        above = self.Lp.lattice._above
        context = [self.Lp.node_labels[c] for c in self.Lp.nodes - self.tL.node_image()]
        return frozenset(x for x, up in above.items() if not up.isdisjoint(context))

    @cached_property
    def _sink(self) -> Optional[tuple[str, str, frozenset[str], frozenset[str]]]:
        """``c``, ``cc``, the labels below ``cc``'s and ``tL``'s edge image
        when the context part of ``L'`` is a *sink*: one node ``c`` with one
        edge ``cc`` from ``c`` to ``c``, as in every BDD rule.  Else ``None``.
        See :func:`~pbpoplus.matching._adherences_for`."""
        context = self.Lp.nodes - self.tL.node_image()
        loops = [e for c in context for e in self.Lp.edges_between(c, c)]
        if len(context) != 1 or len(loops) != 1:
            return None
        top = self.Lp.edge_labels[loops[0]]
        below = frozenset(x for x, up in self.Lp.lattice._above.items() if top in up)
        return (*context, loops[0], below, self.tL.edge_image())


def validate_rule(rule: PbpoRule) -> Report:
    """The validity of the five graphs, then of the five morphisms, each
    connecting its graphs; then injective typing and the left square being a
    genuine pullback.  Each graph and morphism keeps its report, so a rule
    over shared parts costs a lookup per part.  Once the morphisms connect
    the graphs, their ``lattice-mismatch`` checks that all five share one
    lattice."""
    report = Report()
    for name in ("L", "K", "R", "Lp", "Kp"):
        report.extend(getattr(rule, name)._report, prefix=f"{name}: ")
    if not report.ok:
        return report
    for name, f, dom, cod in (("l", rule.l, rule.K, rule.L), ("r", rule.r, rule.K, rule.R),
                              ("tL", rule.tL, rule.L, rule.Lp),
                              ("tK", rule.tK, rule.K, rule.Kp),
                              ("lp", rule.lp, rule.Kp, rule.Lp)):
        if f.dom != dom or f.cod != cod:
            report.add("bad-arrangement", f"morphism {name} does not connect its graphs")
        else:
            report.extend(f._report, prefix=f"{name}: ")
    if not report.ok:
        return report
    if not rule.tL.is_injective():
        report.add("non-injective-typing", "tL must be injective in this engine")
    if not rule.tK.is_injective():
        report.add("non-injective-typing", "tK must be injective in this engine")
    # The canonical pullback has, over each element of L, its l'-fibre.
    _check_square(report, _commutes(rule.l, rule.tL, rule.tK, rule.lp),
                  lambda: all(_is_pullback_sort(rule.l, rule.tK, edges, sum(
                      len(rule._fibres[edges][t]) for t in _map(rule.tL, edges).values()))
                      for edges in (False, True)),
                  ("left-square-commutation", "tL . l differs from l' . tK"),
                  ("left-square-pullback",
                   "the interface is not the full preimage of the typed pattern"))
    return report


@dataclass(frozen=True)
class RhsSpec:
    """Builds the replacement: merge groups of interface elements, override
    labels, and add fresh nodes/edges.  Fresh edge endpoints may name
    interface nodes (meaning: their merge class) or fresh nodes."""

    merge_nodes: tuple[tuple[str, ...], ...] = ()
    merge_edges: tuple[tuple[str, ...], ...] = ()
    node_labels: Mapping[str, str] = field(default_factory=dict)
    edge_labels: Mapping[str, str] = field(default_factory=dict)
    fresh_nodes: Mapping[str, str] = field(default_factory=dict)
    fresh_edges: Mapping[str, tuple[str, str, str]] = field(default_factory=dict)


def _rhs_from_spec(k: LabeledGraph, spec: RhsSpec) -> tuple[LabeledGraph, GraphMorphism]:
    lat = k.lattice

    def classes(ordered: Sequence[str], labels: Mapping, groups, kind: str) -> tuple[dict, dict]:
        # Each element's class, represented by its smallest id, and each
        # class's label, the join of its members'; classes in id order.
        uf = _UnionFind(ordered)
        for group in groups:
            for ident in group:
                if ident not in labels:
                    raise RuleError(f"r-spec-ill-formed: unknown interface {kind} {ident!r}")
                uf.union(group[0], ident)
        found = uf.classes()
        return ({x: rep for rep, members in found.items() for x in members},
                {rep: lat.join(labels[x] for x in members) for rep, members in found.items()})

    node_rep, nodes = classes(k.sorted_nodes, k.node_labels, spec.merge_nodes, "node")
    edge_rep, edge_labels = classes(k.sorted_edges, k.edge_labels, spec.merge_edges, "edge")
    for e in k.edges:
        rep = edge_rep[e]
        if (node_rep[k.src[e]] != node_rep[k.src[rep]]
                or node_rep[k.tgt[e]] != node_rep[k.tgt[rep]]):
            raise RuleError("r-spec-ill-formed: merged edges have unmerged endpoints")

    def override(labels: dict, rep: dict, overrides: Mapping[str, str], kind: str) -> None:
        for key, lab in overrides.items():
            if key not in rep:
                raise RuleError(f"r-spec-ill-formed: label override for unknown {kind} {key!r}")
            if not lat.leq(labels[rep[key]], lab):
                raise RuleError(
                    f"r-spec-ill-formed: override {lab!r} is below the class join at {key!r}")
            labels[rep[key]] = lab

    override(nodes, node_rep, spec.node_labels, "node")
    for ident, lab in spec.fresh_nodes.items():
        if ident in nodes or ident in k.nodes:
            raise RuleError(f"r-spec-ill-formed: fresh node id {ident!r} already used")
        nodes[ident] = lab

    def endpoint(x: str) -> str:
        if x in k.nodes:
            return node_rep[x]
        if x in spec.fresh_nodes:
            return x
        raise RuleError(f"r-spec-ill-formed: unknown endpoint {x!r}")

    override(edge_labels, edge_rep, spec.edge_labels, "edge")
    edges = {rep: (node_rep[k.src[rep]], node_rep[k.tgt[rep]], lab)
             for rep, lab in edge_labels.items()}
    for ident, (s, t, lab) in spec.fresh_edges.items():
        if ident in edges or ident in k.edges:
            raise RuleError(f"r-spec-ill-formed: fresh edge id {ident!r} already used")
        edges[ident] = (endpoint(s), endpoint(t), lab)

    rhs = LabeledGraph.build(lat, nodes, edges)
    r = GraphMorphism(k, rhs, dict(node_rep), dict(edge_rep))
    return rhs, r


def complete_rule(l_pattern: LabeledGraph, t_l: GraphMorphism,
                  l_prime_map: GraphMorphism, r_spec: RhsSpec | None = None,
                  name: str = "") -> PbpoRule:
    """Derive the full rule from ``L``, its typing, and the type-graph map.

    The interface is the preimage of the typed pattern under ``l'``
    (named by ``K'`` ids), which makes the left square a pullback by
    construction; the replacement is built from ``r_spec`` on top of it.
    An invalid ``tL``, ``l'``, ``L``, ``L'`` or ``K'`` is named before the
    preimage is taken.
    """
    from .limits import preimage

    if t_l.dom != l_pattern:
        raise RuleError("invalid-rule: typing does not start from the pattern")
    if t_l.cod != l_prime_map.cod:
        raise RuleError("invalid-rule: typing and type-graph map disagree on L'")
    _require_valid(RuleError, "invalid-rule", ("tL", t_l), ("lp", l_prime_map),
                   ("L", l_pattern), ("Lp", t_l.cod), ("Kp", l_prime_map.dom))
    if not t_l.is_injective():
        raise RuleError("invalid-rule: context typing must be injective")
    pre = preimage(t_l, l_prime_map)
    k = pre.graph
    t_k = pre.inclusion
    l = pre.projection
    rhs, r = _rhs_from_spec(k, r_spec or RhsSpec())
    rule = PbpoRule(L=l_pattern, K=k, R=rhs, Lp=t_l.cod, Kp=l_prime_map.dom,
                    l=l, r=r, tL=t_l, tK=t_k, lp=l_prime_map, name=name)
    _require_valid(RuleError, "invalid-rule", (name, rule))
    return rule


@dataclass(frozen=True)
class RewriteTrace:
    """Everything a PBPO+ step computed: the three host-side graphs and all
    connecting morphisms, alongside the rule."""

    rule: PbpoRule
    g_in: LabeledGraph    # G_L
    g_mid: LabeledGraph   # G_K
    g_out: LabeledGraph   # G_R
    m: GraphMorphism      # L -> G_L
    alpha: GraphMorphism  # G_L -> L'
    g_l: GraphMorphism    # G_K -> G_L
    g_r: GraphMorphism    # G_K -> G_R
    u: GraphMorphism      # K -> G_K
    u_prime: GraphMorphism  # G_K -> K'
    w: GraphMorphism      # R -> G_R


def verify_trace(trace: RewriteTrace) -> Report:
    """Re-check every defining property of a completed step: the rule and
    the trace's three graphs, the match, decided in full as a new
    :class:`~pbpoplus.matching.Match`, then the check :func:`pbpo_step`
    runs (see :func:`~pbpoplus.stepcheck._check_step`).  An invalid graph
    ends the check at once; an invalid rule or morphism, or a morphism that
    does not connect the trace's graphs, ends it after the morphisms'
    arrangement is checked; a square that does not commute is reported,
    not decided."""
    rule = trace.rule
    report = Report()
    report.extend(rule._report, prefix="rule: ")
    graphs = ("g_in", "g_mid", "g_out")
    for name in graphs:
        report.extend(getattr(trace, name)._report, prefix=f"{name}: ")
    if not all(getattr(trace, name)._report.ok for name in graphs):
        return report
    for name, dom, cod in (("m", rule.L, trace.g_in), ("alpha", trace.g_in, rule.Lp),
                           ("g_l", trace.g_mid, trace.g_in),
                           ("g_r", trace.g_mid, trace.g_out),
                           ("u", rule.K, trace.g_mid), ("u_prime", trace.g_mid, rule.Kp),
                           ("w", rule.R, trace.g_out)):
        mor = getattr(trace, name)
        if mor.dom != dom or mor.cod != cod:
            report.add("bad-arrangement", f"morphism {name} does not connect its graphs")
    if report.ok:
        report.extend(Match(trace.m, trace.alpha, rule.tL)._report)
    if report.ok:
        report.extend(_check_step(trace))
    return report


def _stamper(step: int, host: LabeledGraph):
    """Fresh ids for the elements a step duplicates or creates.

    The stamp of rule element ``ident`` is ``"{step}:{ident}"``, or, when
    that is taken, ``"{step}:{ident}'{n}"`` with the smallest free ``n >=
    2``.  A stamp is picked by checking that it is no id of the host, node
    or edge, and no earlier stamp of the step, so the result's ids are
    distinct.  It is not derived from a host id, so its length depends on
    the step index, the rule and the host's size, never on how many steps
    came before.
    """
    prefix = f"{step}:"
    used: set[str] = set()

    def stamp(ident: str) -> str:
        base = cand = prefix + ident
        n = 1
        while cand in used or cand in host.nodes or cand in host.edges:
            n += 1
            cand = f"{base}'{n}"
        used.add(cand)
        return cand

    return stamp


def _pullback_sort(record: dict, rule: PbpoRule, m: GraphMorphism, alpha: GraphMorphism,
                   edges: bool, stamp):
    """One sort of the deletion pullback, edited into the host's maps: the
    labels of ``G_K``, ``g_L`` and ``u'``, the host elements the rule acts
    on (those typed onto an element of ``L'`` that is not plain), and the
    id of each of their pairs.

    A pair keeps the id of its host element when it is the only one over
    it, else it is stamped after its ``K'`` element.  Pairs are made in
    ``(host id, K' id)`` order, so stamps are drawn in that order."""
    alpha_map, plain, fibres = _map(alpha, edges), rule._plain[edges], rule._fibres[edges]
    host_labels, kp_labels = _sort(alpha.dom, edges)[1], _sort(rule.Kp, edges)[1]
    meet = alpha.dom.lattice.meet
    acted = sorted(_acted(rule, m, alpha, edges))
    pairs: dict[tuple[str, str], str] = {}
    labels, g_l, u_prime = {}, {}, {}
    for g in acted:
        fibre = fibres[alpha_map[g]]
        for c in fibre:
            x = pairs[g, c] = g if len(fibre) == 1 else stamp(c)
            labels[x], g_l[x], u_prime[x] = meet((host_labels[g], kp_labels[c])), g, c
    return (_apply(record, (dict, host_labels), acted, labels),
            _apply(record, (_identity_on, alpha_map), acted, g_l),
            _apply(record, (_plain_over, alpha_map, plain), acted, u_prime), acted, pairs)


def _deletion(record: dict, rule: PbpoRule, m: GraphMorphism, alpha: GraphMorphism, stamp):
    """``g_L`` and ``u'``, the legs of the pullback ``G_K`` of ``alpha`` and
    ``l'``, the ids of the node and edge pairs over host elements the rule
    acts on, and the patch: those elements, their pairs, the edges
    redirected.  Every other host element passes through unchanged (the
    plain-fibre lemma of ``docs/DESIGN.md``); an edge between those keeps
    its endpoints unless one was duplicated, which the host's incidence
    lists find."""
    host, kp = alpha.dom, rule.Kp
    node_labels, gl_nodes, up_nodes, acted_nodes, node_pairs = _pullback_sort(
        record, rule, m, alpha, False, stamp)
    edge_labels, gl_edges, up_edges, acted, edge_pairs = _pullback_sort(
        record, rule, m, alpha, True, stamp)
    duplicated = {g for (g, _), x in node_pairs.items() if x != g}
    moved = {e for g in duplicated for e in host.incident_edges[g]}.difference(acted)
    patch = ({*acted_nodes, *node_pairs.values()}, {*acted, *edge_pairs.values(), *moved})
    ends = []
    for host_ends, kp_ends in ((host.src, kp.src), (host.tgt, kp.tgt)):
        written = {e: node_pairs[host_ends[e], kp_ends[up_edges[e]]]
                   for e in moved if host_ends[e] in duplicated}
        written.update((x, node_pairs.get((host_ends[e], kp_ends[c]), host_ends[e]))
                       for (e, c), x in edge_pairs.items())
        ends.append(_apply(record, (dict, host_ends), acted, written))
    g_mid = _graph(record, host.lattice, node_labels, edge_labels, ends[0], ends[1])
    _require_graph(record, g_mid, host, acted_nodes,
                   {e for n in acted_nodes for e in host.incident_edges[n]})
    return (GraphMorphism(g_mid, host, gl_nodes, gl_edges),
            GraphMorphism(g_mid, kp, up_nodes, up_edges), (node_pairs, edge_pairs), patch)


def _pushout_sort(record: dict, rule: PbpoRule, u: GraphMorphism, g_l: GraphMorphism,
                  pairs: dict, edges: bool, stamp):
    """One sort of the addition pushout, edited into ``G_K``'s maps: the
    labels of ``G_R``, ``w``, and ``g_R``, edited into ``g_L``, which sends
    the same ids to themselves but the pairs stamped over a host element; the
    ``G_K`` elements merged into a class under another id, and the classes
    whose id is new or whose label changed.

    Only ``u(K)`` and ``R`` go through the union-find.  A class keeps the id
    of its smallest ``G_K`` member; a class of ``R`` elements alone is
    stamped after its smallest one, in id order."""
    u_map, r_map, mid_labels = _map(u, edges), _map(rule.r, edges), _sort(u.cod, edges)[1]
    r_labels, join = _sort(rule.R, edges)[1], rule.R.lattice.join
    uf = _UnionFind([("0", v) for v in u_map.values()] + [("1", z) for z in r_labels])
    for k, v in u_map.items():
        uf.union(("0", v), ("1", r_map[k]))
    classes = uf.classes()
    created = {root: stamp(root[1]) for root in sorted(classes) if root[0] == "1"}
    labels, w, merged = {}, {}, set()
    g_r = {x: x for (g, _), x in pairs.items() if x != g}
    for root, members in classes.items():
        ident = created.get(root, root[1])
        joined = []
        for side, x in members:
            joined.append((r_labels if side == "1" else mid_labels)[x])
            if side == "1":
                w[x] = ident
            elif x != ident:
                g_r[x] = ident
                merged.add(x)
        label = join(joined)
        if label != mid_labels.get(ident):
            labels[ident] = label
    return (_apply(record, (dict, mid_labels), merged, labels),
            _apply(record, (dict, _map(g_l, edges)), (), g_r), w, merged, set(labels))


def _addition(record: dict, rule: PbpoRule, u: GraphMorphism, g_l: GraphMorphism, pairs,
              deleted: set[str], stamp):
    """``g_R`` and ``w``, the legs of the pushout ``G_R`` of ``u`` and
    ``r``, and the patch: the elements merged, the classes new or
    relabelled, the edges redirected.  An edge of ``G_K`` keeps its
    endpoints unless one was merged into a class under another id; the
    edges of ``G_K`` at a node are the host's there or among the edges the
    deletion wrote, ``deleted``.  An edge ``R`` creates takes its endpoints
    from ``w``."""
    g_mid, rhs, incident = u.cod, rule.R, g_l.cod.incident_edges
    node_labels, gr_nodes, w_nodes, merged, new_nodes = _pushout_sort(
        record, rule, u, g_l, pairs[0], False, stamp)
    edge_labels, gr_edges, w_edges, gone, new_edges = _pushout_sort(
        record, rule, u, g_l, pairs[1], True, stamp)
    at_merged = {e for e in deleted.union(*(incident.get(n, ()) for n in merged))
                 if g_mid.src.get(e) in merged or g_mid.tgt.get(e) in merged}
    moved = at_merged.difference(gone)
    patch = (merged | new_nodes, gone | new_edges | moved)
    ends = []
    for mid_ends, r_ends in ((g_mid.src, rhs.src), (g_mid.tgt, rhs.tgt)):
        written = {e: gr_nodes[mid_ends[e]] for e in moved if mid_ends[e] in merged}
        written.update((x, w_nodes[r_ends[z]]) for z, x in w_edges.items() if x not in mid_ends)
        ends.append(_apply(record, (dict, mid_ends), gone, written))
    g_out = _graph(record, g_mid.lattice, node_labels, edge_labels, ends[0], ends[1])
    _require_graph(record, g_out, g_mid, merged, at_merged)
    return (GraphMorphism(g_mid, g_out, gr_nodes, gr_edges),
            GraphMorphism(rhs, g_out, w_nodes, w_edges), patch)


def pbpo_step(rule: PbpoRule, match: Match, step: int = 0,
              changed: Optional[list] = None) -> tuple[LabeledGraph, RewriteTrace]:
    """Apply one PBPO+ step at a strong match.

    A ``G_K`` element that is the only pair over its host element (its
    ``l'``-fibre is a singleton, as for every element of every BDD rule)
    keeps the host's id; each copy of a duplicated element is stamped after
    its ``K'`` element.  A class of ``G_R`` keeps the id of its smallest
    ``G_K`` member, and an element the replacement creates is stamped after
    its ``R`` element (see :func:`_stamper`).  Repeated runs produce
    identical traces, and the result holds the indexes its host held,
    patched (see :func:`~pbpoplus.graph._carry_indexes`) at the ids of the
    step's patch, which the step check verifies and a list given as
    ``changed`` gets appended.  The host must be a valid graph, which its
    kept verdict decides; the result is born with an ok one, being built
    from it and checked.

    The match is decided once, by :attr:`~pbpoplus.matching.Match._report`:
    a match from :func:`~pbpoplus.matching.find_matches` was decided when
    it was found, and any other, or one whose typing is not ``rule.tL``,
    is decided here in full.  An invalid rule raises :class:`RuleError`, an
    invalid host :class:`GraphError`, an invalid or mismatched match
    :class:`MorphismError`, a match that is not strong
    :class:`StrongMatchError`, an argument of the wrong type the error of
    its kind; a construction that fails any
    property of :func:`~pbpoplus.stepcheck._check_step`, the check
    :func:`verify_trace` runs too, or builds a dangling edge raises
    :class:`InternalMediatorError`.
    """
    _require_type(RuleError, "invalid-rule", PbpoRule, rule)
    _require_type(MorphismError, "invalid-match", Match, match)
    _require_valid(RuleError, "invalid-rule", (rule.name, rule))
    m, alpha = match.m, match.alpha
    _require_valid(GraphError, "invalid-graph", ("host", m.cod))
    if m.dom != rule.L or alpha.cod != rule.Lp or m.cod != alpha.dom:
        raise MorphismError("typing-mismatch: the match does not connect L, the host and L'")
    if match.typing != rule.tL:
        match = Match(m, alpha, rule.tL)
    report = match._report
    if "match-square" in report.codes():
        raise StrongMatchError("strong-match-failure: the supplied match is not "
                               f"a strong match for the rule: {report}")
    if not report.ok:
        raise MorphismError(f"invalid-match: a morphism of the match is invalid: {report}")
    try:
        trace, patch = _construct(rule, match, step)
    except KeyError as exc:
        raise InternalMediatorError("internal-mediator-failure: the construction looked up "
                                    f"an element it did not build: {exc}") from exc
    report = _check_step(trace, patch)
    if hasattr(trace, "_edits"):  # it served the check; a kept trace holds no more
        object.__delattr__(trace, "_edits")
    if not report.ok:
        raise InternalMediatorError(f"internal-mediator-failure: {report}")
    _carry_indexes(trace.g_in, trace.g_out, patch)
    trace.g_out.__dict__["_report"] = trace.g_in._report  # ok: built from it and checked
    if changed is not None:
        changed.append(patch)
    return trace.g_out, trace


def _construct(rule: PbpoRule, match: Match, step: int) -> tuple[RewriteTrace, list]:
    """The graphs and legs of a step at a strong match, unchecked but for
    the validity of ``u`` and the endpoints of each edge written, and the
    node and edge ids the deletion and the addition wrote, its patch.  The
    trace carries the record of every map :func:`~pbpoplus.stepcheck._apply`
    made, as ``_edits``."""
    m, alpha = match.m, match.alpha
    host = alpha.dom
    record: dict = {}
    stamp = _stamper(step, host)
    g_l, u_prime, (node_pairs, edge_pairs), deleted = _deletion(record, rule, m, alpha, stamp)
    g_mid = g_l.dom

    # The unique embedding of the interface: it is forced to the pair
    # (m(l(k)), tK(k)) by the two commutation requirements.  Its defining
    # properties are checked with the rest of the step.
    def embed(ids, l_map, m_map, tk_map, pairs) -> dict[str, str]:
        return {k: pairs.get((m_map[l_map[k]], tk_map[k]), m_map[l_map[k]]) for k in ids}

    u = GraphMorphism(
        rule.K, g_mid,
        embed(rule.K.sorted_nodes, rule.l.node_map, m.node_map, rule.tK.node_map, node_pairs),
        embed(rule.K.sorted_edges, rule.l.edge_map, m.edge_map, rule.tK.edge_map, edge_pairs))
    _require_valid(InternalMediatorError, "internal-mediator-failure", ("u", u))
    g_r, w, added = _addition(record, rule, u, g_l, (node_pairs, edge_pairs), deleted[1], stamp)
    trace = RewriteTrace(rule=rule, g_in=host, g_mid=g_mid, g_out=g_r.cod, m=m, alpha=alpha,
                         g_l=g_l, g_r=g_r, u=u, u_prime=u_prime, w=w)
    object.__setattr__(trace, "_edits", record)
    return trace, [deleted[0] | added[0], deleted[1] | added[1]]


@dataclass(frozen=True)
class NormalizeResult:
    """The final graph, the traces of the steps if they were kept (else
    empty), whether no rule matches any more, and the number of steps."""

    graph: LabeledGraph
    traces: tuple[RewriteTrace, ...]
    reached_fixpoint: bool
    steps: int

    @property
    def status(self) -> str:
        return "fixpoint" if self.reached_fixpoint else "step-limit-exceeded"


def normalize(g: LabeledGraph, rules: Sequence[PbpoRule],
              max_steps: Optional[int] = None,
              keep_traces: bool = True) -> NormalizeResult:
    """Repeatedly apply the first rule that matches, at its first match.

    Every rule and the host are validated up front: an invalid rule, or a
    rule that is no :class:`PbpoRule`, raises :class:`RuleError`, a
    malformed host or one that is no graph ``invalid-graph``, and a
    ``max_steps`` that is no non-negative int ``invalid-budget``.  Runs
    until no rule matches or the step budget is exhausted; hitting the
    budget is reported through the result, not raised.  With
    ``keep_traces=False`` the traces are dropped as the run goes, so its
    memory does not grow with the number of steps; every step is still
    fully checked when it is made.

    A rule whose pattern does not occur in the host at all is certified:
    until it occurs again it is skipped without a search.  Each step adds
    the ids it changed (its verified patch, see :func:`pbpo_step`) to every
    certificate's pending set, and a certified rule's next turn asks only whether an
    occurrence goes through one of them (see ``docs/DESIGN.md``).  No such
    occurrence certifies the rule at the current host; one drops the
    certificate and the rule gets the full search of
    :func:`~pbpoplus.matching.iter_matches`.  The rule that fires and its
    match are therefore the ones a search of every rule on every step finds.
    """
    if max_steps is not None and not (isinstance(max_steps, int) and max_steps >= 0):
        raise EngineError(f"invalid-budget: max_steps must be a non-negative int, "
                          f"got {max_steps!r}")
    _require_type(GraphError, "invalid-graph", LabeledGraph, g)
    _require_type(RuleError, "invalid-rule", PbpoRule, *rules)
    _require_valid(RuleError, "invalid-rule", *((rule.name, rule) for rule in rules))
    _require_valid(GraphError, "invalid-graph", ("host", g))
    traces: list[RewriteTrace] = []
    steps = 0
    current = g
    # Per rule: None, or the node and edge ids changed since the host at
    # which its pattern was last seen not to occur.
    certificates: list[Optional[tuple[set[str], set[str]]]] = [None] * len(rules)

    def first_match(i: int, rule: PbpoRule) -> Optional[Match]:
        certificate = certificates[i]
        if certificate is not None:
            nodes, edges = certificate
            if not _occurs_at(rule.L, current, nodes, edges):
                nodes.clear()
                edges.clear()
                return None
        match, occurs = _first_match(rule, current)
        certificates[i] = None if occurs else (set(), set())
        return match

    while max_steps is None or steps < max_steps:
        for i, rule in enumerate(rules):
            match = first_match(i, rule)
            if match is not None:
                diffs: list = []
                result, trace = pbpo_step(rule, match, step=steps, changed=diffs)
                nodes, edges = diffs[0]
                for certificate in certificates:
                    if certificate is not None:
                        certificate[0].update(nodes)
                        certificate[1].update(edges)
                current = result
                steps += 1
                if keep_traces:
                    traces.append(trace)
                break
        else:
            return NormalizeResult(current, tuple(traces), True, steps)
    # Budget exhausted; a further match may or may not exist.
    more = any(first_match(i, rule) is not None for i, rule in enumerate(rules))
    return NormalizeResult(current, tuple(traces), not more, steps)
