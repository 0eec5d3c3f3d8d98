"""ToyPO, ToyPB, and PBPO+ rewrite steps, rule handling, and normalization.

A PBPO+ rule is the diagram

    L  <-l-  K  -r->  R
    |tL      |tK
    L' <-l'- K'

with injective context typing ``tL`` and a left square that is a genuine
pullback, so the interface ``K`` is exactly the part of ``K'`` sitting over
the typed pattern.  A step at a strong match ``(m, alpha)`` first pulls the
host back along ``l'`` (deleting and duplicating through the context), then
pushes the interface out along ``r`` (identifying and adding on the
pattern):

    L  -m->  G_L  <-g_L-  G_K  -g_R->  G_R
    |tL      |alpha       |u'     ^w
    L' <-------l'-------- K'      R

The embedding ``u : K -> G_K`` is uniquely determined by ``tK = u' . u``
together with the middle square; it is computed in closed form as the
pullback pair ``(m(l(k)), tK(k))``, looked up in the step's own naming.

Host ids survive a step.  The step hands its own naming to the one
pullback and pushout construction of :mod:`~pbpoplus.limits`, so ``G_K``
and ``G_R`` are built under their final ids: a host element with one copy
in ``G_K`` keeps its id (the same ``str`` object), a merged class keeps
the id of its smallest member, and only elements that the step duplicates
or the replacement creates get a fresh ``"{step}:{ident}"`` stamp.  Ids
therefore do not grow with the number of steps.

:func:`pbpo_step` always checks every property of the step exactly once,
so an invalid rule or match is an error, never a wrong graph.  At entry it
checks the rule, ``m``, ``alpha`` and the match square; a match found by
:func:`~pbpoplus.matching.iter_matches` keeps the pullback its
strong-match check built, and the square is decided over it.  After the
construction, :func:`~pbpoplus.stepcheck._check_step`, which
:func:`verify_trace` runs too, checks the validity of ``g_L, g_R, u, u', w``, ``u' . u = tK``, that
``u`` is injective, and that the middle (``u`` is the pullback of ``m``
along ``g_L``), deletion and addition squares commute and, only then, are
limits.

That check builds no limit; it counts.  A commuting square is a pullback
exactly when the forced map ``x -> (p(x), q(x))`` into the canonical
pullback is a bijection that keeps labels.  The canonical pullback of
``alpha`` and ``l'`` has, in each sort,

    sum over g in G_L of |l'^-1(alpha(g))|

elements.  So the deletion square is a pullback when the pairs ``(g_L(x),
u'(x))`` are distinct, there are that many, and each ``x`` is labelled
with the meet of its pair's labels.  The fibre sizes of ``l'`` are kept on
the rule.  The middle square is decided the same way: its canonical
pullback is the ``g_L``-fibre over ``m(L)``, which must have ``|K|``
elements.

The pushout of ``(u, r)`` has a class of its own for each element of
``G_K`` outside ``u(K)``, with that element's label, and one for each
class of ``u(K)`` and ``R`` under ``u(k) ~ r(k)``, labelled with the join
of its members.  A commuting ``(g_R, w)`` is the pushout when each class's
image carries the class's label and the images of ``g_R`` and ``w`` are as
many as the classes and as ``G_R``.

One pass over ``G_K``, nodes then edges, gathers all of this together
with the validity of ``g_L``, ``u'`` and ``g_R``.  A step thus builds one
deletion pullback and one pushout.

Because ids survive a step, what :func:`normalize` learnt about one host
carries over to the next.  Call an element of ``G_R`` *unchanged* when
``G_L`` has an element of the same id and label and, for an edge, the same
source and target.  An injective homomorphism ``L -> G_R`` whose image is
unchanged is then also one into ``G_L``, with the same maps.  So if a
pattern does not occur in ``G_L``, every occurrence of it in ``G_R``
contains a changed node or a changed edge; by induction over a run of
steps, an element changed by one of them and left alone by the later ones.
A rule whose pattern did not occur is therefore searched again only
through the elements changed since, which is the negative half of
RETE-style incremental matching (Forgy 1982; Bergmann et al., MODELS 2010).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import ne
from typing import Mapping, Optional, Sequence

from .errors import (EngineError, InternalMediatorError, MorphismError, Report,
                     RuleError, StrongMatchError)
from .graph import (GraphMorphism, LabeledGraph, _require_valid, _require_valid_graph,
                    identity)
from .limits import (Cospan, Span, _commutes, _is_pullback, _UnionFind, pullback,
                     pushout)
from .matching import Match, _first_match, _occurs_at
from .stepcheck import _check_square, _check_step


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
    def _fibre_sizes(self) -> tuple[dict[str, int], dict[str, int]]:
        """Nodes, then edges: the number of preimages under ``l'`` of each
        element of ``L'``, which is how many copies in ``G_K`` a host
        element typed onto it has."""
        sizes = []
        for ids, lp_map in ((self.Lp.nodes, self.lp.node_map),
                            (self.Lp.edges, self.lp.edge_map)):
            counts = Counter(lp_map.values())
            sizes.append({x: counts[x] for x in ids})
        return sizes[0], sizes[1]

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
    def _alone_in_fibre(self) -> dict[str, frozenset[str]]:
        """By sort, the elements of ``K'`` that are the only preimage of
        their image under ``l'``: a host element typed onto that image has
        exactly one copy in ``G_K``."""
        alone = {}
        for kind, sizes, lp_map in (("node", self._fibre_sizes[0], self.lp.node_map),
                                    ("edge", self._fibre_sizes[1], self.lp.edge_map)):
            alone[kind] = frozenset(k for k, x in lp_map.items() if sizes[x] == 1)
        return alone


def _require_valid_rule(rule: PbpoRule) -> None:
    if not rule._report.ok:
        raise RuleError(f"invalid-rule: {rule.name or '?'}: {rule._report}")


def validate_rule(rule: PbpoRule) -> Report:
    """Morphism validity, lattice agreement, injective typing, and the left
    square being a genuine pullback."""
    report = Report()
    lat = rule.L.lattice
    for label, g in (("K", rule.K), ("R", rule.R), ("Lp", rule.Lp), ("Kp", rule.Kp)):
        if g.lattice != lat:
            report.add("lattice-mismatch", f"graph {label} uses a different lattice")
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
    typed, interface = Cospan(rule.tL, rule.lp), Span(rule.l, rule.tK)
    _check_square(report, _commutes(interface, typed),
                  lambda: _is_pullback(pullback(typed), interface),
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

    def classes(ids: frozenset[str], groups, kind: str) -> dict[str, str]:
        # Each class is represented by its smallest id.
        uf = _UnionFind(ids)
        for group in groups:
            for ident in group:
                if ident not in ids:
                    raise RuleError(f"r-spec-ill-formed: unknown interface {kind} {ident!r}")
                uf.union(group[0], ident)
        return {x: uf.find(x) for x in ids}

    node_rep = classes(k.nodes, spec.merge_nodes, "node")
    edge_rep = classes(k.edges, spec.merge_edges, "edge")
    for e in k.edges:
        rep = edge_rep[e]
        if (node_rep[k.src[e]] != node_rep[k.src[rep]]
                or node_rep[k.tgt[e]] != node_rep[k.tgt[rep]]):
            raise RuleError("r-spec-ill-formed: merged edges have unmerged endpoints")

    join = lat.join
    nodes: dict[str, str] = {}
    for n in k.sorted_nodes:
        rep = node_rep[n]
        nodes.setdefault(rep, join(
            k.node_labels[x] for x in k.nodes if node_rep[x] == rep))
    for key, lab in spec.node_labels.items():
        if key not in k.nodes:
            raise RuleError(f"r-spec-ill-formed: label override for unknown node {key!r}")
        rep = node_rep[key]
        if not lat.leq(nodes[rep], lab):
            raise RuleError(
                f"r-spec-ill-formed: override {lab!r} is below the class join at {key!r}")
        nodes[rep] = lab
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

    edges: dict[str, tuple[str, str, str]] = {}
    for e in k.sorted_edges:
        rep = edge_rep[e]
        if rep in edges:
            continue
        lab = join(k.edge_labels[x] for x in k.edges if edge_rep[x] == rep)
        edges[rep] = (node_rep[k.src[rep]], node_rep[k.tgt[rep]], lab)
    for key, lab in spec.edge_labels.items():
        if key not in k.edges:
            raise RuleError(f"r-spec-ill-formed: label override for unknown edge {key!r}")
        rep = edge_rep[key]
        s, t, old = edges[rep]
        if not lat.leq(old, lab):
            raise RuleError(
                f"r-spec-ill-formed: override {lab!r} is below the class join at {key!r}")
        edges[rep] = (s, t, lab)
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
    """
    from .limits import preimage

    if t_l.dom != l_pattern:
        raise RuleError("invalid-rule: typing does not start from the pattern")
    if t_l.cod != l_prime_map.cod:
        raise RuleError("invalid-rule: typing and type-graph map disagree on L'")
    if not t_l.is_injective():
        raise RuleError("invalid-rule: context typing must be injective")
    pre = preimage(t_l, l_prime_map)
    k = pre.graph
    t_k = pre.inclusion
    l = pre.projection
    rhs, r = _rhs_from_spec(k, r_spec or RhsSpec())
    rule = PbpoRule(L=l_pattern, K=k, R=rhs, Lp=t_l.cod, Kp=l_prime_map.dom,
                    l=l, r=r, tL=t_l, tK=t_k, lp=l_prime_map, name=name)
    _require_valid_rule(rule)
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


def _check_match(report: Report, m: GraphMorphism, alpha: GraphMorphism,
                 t_l: GraphMorphism, match: Optional[Match] = None) -> None:
    """The match square.  When ``match`` (of ``m`` and ``alpha``) is typed by
    ``t_l`` itself, its universal property is decided over the pullback the
    match keeps, which a match found by :func:`iter_matches` already holds."""
    typed, pattern = Cospan(alpha, t_l), Span(m, identity(t_l.dom))
    held = match is not None and match.typing is t_l
    _check_square(report, _commutes(pattern, typed),
                  lambda: _is_pullback(match._pullback if held else pullback(typed), pattern),
                  ("match-square", "alpha . m differs from tL"),
                  ("match-square", "the strong-match square is not a pullback"))


def verify_trace(trace: RewriteTrace) -> Report:
    """Re-check every defining property of a completed step: the rule, the
    match square, then the check :func:`pbpo_step` runs (see
    :func:`~pbpoplus.stepcheck._check_step`).  An invalid rule or morphism,
    or one that does not connect the trace's graphs, ends the check; a
    square that does not commute is reported, not decided."""
    rule = trace.rule
    report = Report()
    report.extend(rule._report, prefix="rule: ")
    for name, dom, cod in (("m", rule.L, trace.g_in), ("alpha", trace.g_in, rule.Lp),
                           ("g_l", trace.g_mid, trace.g_in),
                           ("g_r", trace.g_mid, trace.g_out),
                           ("u", rule.K, trace.g_mid), ("u_prime", trace.g_mid, rule.Kp),
                           ("w", rule.R, trace.g_out)):
        mor = getattr(trace, name)
        if mor.dom != dom or mor.cod != cod:
            report.add("bad-arrangement", f"morphism {name} does not connect its graphs")
    for name in ("m", "alpha"):
        report.extend(getattr(trace, name)._report, prefix=f"{name}: ")
    if report.ok:
        _check_match(report, trace.m, trace.alpha, rule.tL)
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


def pbpo_step(rule: PbpoRule, match: Match,
              step: int = 0) -> tuple[LabeledGraph, RewriteTrace]:
    """Apply one PBPO+ step at a strong match.

    A ``G_K`` element that is the only pair over its host element (its
    ``l'``-fibre is a singleton, as for every element of every BDD rule)
    keeps the host's id; each copy of a duplicated element is stamped after
    its ``K'`` element.  A class of ``G_R`` keeps the id of its smallest
    ``G_K`` member, and an element the replacement creates is stamped after
    its ``R`` element (see :func:`_stamper`).  Repeated runs produce
    identical traces.  An invalid rule raises :class:`RuleError`, an
    invalid or mismatched match :class:`MorphismError`, a match that is
    not strong :class:`StrongMatchError`; a completed step that fails any
    property of :func:`~pbpoplus.stepcheck._check_step`, the check
    :func:`verify_trace` runs too, raises :class:`InternalMediatorError`.
    """
    _require_valid_rule(rule)
    m, alpha = match.m, match.alpha
    if m.dom != rule.L or alpha.cod != rule.Lp or m.cod != alpha.dom:
        raise MorphismError("typing-mismatch: the match does not connect L, the host and L'")
    _require_valid(MorphismError, "invalid-match", ("m", m), ("alpha", alpha))
    report = Report()
    _check_match(report, m, alpha, rule.tL, match)
    if not report.ok:
        raise StrongMatchError("strong-match-failure: the supplied match is not "
                               f"a strong match for the rule: {report}")
    g_host = alpha.dom
    stamp = _stamper(step, g_host)
    alone = rule._alone_in_fibre
    stamped: dict[str, dict[tuple[str, str], str]] = {"node": {}, "edge": {}}

    def kept_ids(pairs: list[tuple[str, str]], kind: str) -> list[str]:
        # A host element with one pair keeps its id; each copy of a
        # duplicated one is stamped after its K' element.
        singles, copies = alone[kind], stamped[kind]

        def copy(g: str, kp: str) -> str:
            copies[g, kp] = ident = stamp(kp)
            return ident

        return [g if kp in singles else copy(g, kp) for g, kp in pairs]

    mid = pullback(Cospan(alpha, rule.lp, kept_ids))
    g_mid = mid.object
    g_l, u_prime = mid.left_leg, mid.right_leg

    # The unique embedding of the interface: it is forced to the pair
    # (m(l(k)), tK(k)) by the two commutation requirements.  Its defining
    # properties are checked with the rest of the step.
    def embed(kind: str, ids, l_map, m_map, tk_map, present) -> dict[str, str]:
        singles, copies = alone[kind], stamped[kind]
        images = {}
        for k in ids:
            g, kp = m_map[l_map[k]], tk_map[k]
            image = g if kp in singles else copies.get((g, kp))
            if image not in present:
                raise InternalMediatorError(
                    f"internal-mediator-failure: interface {kind} {k!r} has no image")
            images[k] = image
        return images

    u = GraphMorphism(
        rule.K, g_mid,
        embed("node", rule.K.sorted_nodes, rule.l.node_map, m.node_map,
              rule.tK.node_map, g_mid.nodes),
        embed("edge", rule.K.sorted_edges, rule.l.edge_map, m.edge_map,
              rule.tK.edge_map, g_mid.edges))
    _require_valid(InternalMediatorError, "internal-mediator-failure", ("u", u))

    def glued_ids(roots: list[tuple[str, str]], kind: str) -> list[str]:
        # A class with a G_K member keeps the smallest one's id, its root;
        # only elements the replacement creates are stamped.
        return [x if side == "0" else stamp(x) for side, x in roots]

    out = pushout(Span(u, rule.r, glued_ids))
    g_out, g_r, w = out.object, out.left_leg, out.right_leg

    trace = RewriteTrace(rule=rule, g_in=g_host, g_mid=g_mid, g_out=g_out,
                         m=m, alpha=alpha, g_l=g_l, g_r=g_r,
                         u=u, u_prime=u_prime, w=w)
    report = _check_step(trace)
    if not report.ok:
        raise InternalMediatorError(f"internal-mediator-failure: {report}")
    return g_out, trace


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


def _changed(before: LabeledGraph, after: LabeledGraph) -> tuple[set[str], set[str]]:
    """The node and edge ids of ``after`` that ``before`` lacks, or has with
    another label or, for an edge, other endpoints."""

    def differ(old: Mapping[str, str], new: Mapping[str, str]):
        return compress(new, map(ne, map(old.get, new), new.values()))

    nodes = set(differ(before.node_labels, after.node_labels))
    edges = set(differ(before.edge_labels, after.edge_labels))
    edges.update(differ(before.src, after.src))
    edges.update(differ(before.tgt, after.tgt))
    return nodes, edges


def normalize(g: LabeledGraph, rules: Sequence[PbpoRule],
              max_steps: Optional[int] = None,
              keep_traces: bool = True) -> NormalizeResult:
    """Repeatedly apply the first rule that matches, at its first match.

    Every rule and the host are validated up front: an invalid rule raises
    :class:`RuleError`, a malformed host ``invalid-graph`` and a negative
    ``max_steps`` ``invalid-budget``.  Runs until no rule matches or the
    step budget is exhausted; hitting the budget is reported through the
    result, not raised.  With ``keep_traces=False`` the traces are dropped
    as the run goes, so its memory does not grow with the number of steps;
    every step is still fully checked when it is made.

    A rule whose pattern does not occur in the host at all is certified:
    until it occurs again it is skipped without a search.  Each step adds
    the ids it changed (see :func:`_changed`) to every certificate's
    pending set, and a certified rule's next turn asks only whether an
    occurrence goes through one of them (see the module docstring).  No such
    occurrence certifies the rule at the current host; one drops the
    certificate and the rule gets the full search of
    :func:`~pbpoplus.matching.iter_matches`.  The rule that fires and its
    match are therefore the ones a search of every rule on every step finds.
    """
    if max_steps is not None and max_steps < 0:
        raise EngineError(f"invalid-budget: max_steps must not be negative, got {max_steps}")
    for rule in rules:
        _require_valid_rule(rule)
    _require_valid_graph(g)
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
                result, trace = pbpo_step(rule, match, step=steps)
                nodes, edges = _changed(current, result)
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
