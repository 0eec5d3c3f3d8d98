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
together with the middle square; it is computed in closed form from the
pullback pair naming and then every defining property is re-checked, so an
invalid rule or match surfaces as an error rather than a wrong graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import (InternalMediatorError, MorphismError, Report, RuleError,
                     StrongMatchError)
from .graph import (GraphMorphism, LabeledGraph, compose, identity,
                    validate_morphism)
from .limits import (Cospan, Span, _maps_equal, is_pullback_square,
                     is_pushout_square, pair_id, pullback, pushout)
from .matching import Match, check_strong_match, iter_matches


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


def validate_rule(rule: PbpoRule) -> Report:
    """Morphism validity, lattice agreement, injective typing, and the left
    square being a genuine pullback."""
    report = Report()
    lat = rule.L.lattice
    for label, g in (("K", rule.K), ("R", rule.R), ("Lp", rule.Lp), ("Kp", rule.Kp)):
        if g.lattice != lat:
            report.add("lattice-mismatch", f"graph {label} uses a different lattice")
    expected = {
        "l": (rule.l, rule.K, rule.L),
        "r": (rule.r, rule.K, rule.R),
        "tL": (rule.tL, rule.L, rule.Lp),
        "tK": (rule.tK, rule.K, rule.Kp),
        "lp": (rule.lp, rule.Kp, rule.Lp),
    }
    for name, (f, dom, cod) in expected.items():
        if f.dom != dom or f.cod != cod:
            report.add("bad-arrangement", f"morphism {name} does not connect its graphs")
            continue
        sub = validate_morphism(f)
        if not sub.ok:
            report.extend(sub, prefix=f"{name}: ")
    if not report.ok:
        return report
    if not rule.tL.is_injective():
        report.add("non-injective-typing", "tL must be injective in this engine")
    if not rule.tK.is_injective():
        report.add("non-injective-typing", "tK must be injective in this engine")
    left = compose(rule.l, rule.tL)
    bottom = compose(rule.tK, rule.lp)
    if left.node_map != bottom.node_map or left.edge_map != bottom.edge_map:
        report.add("left-square-commutation", "tL . l differs from l' . tK")
        return report
    if not is_pullback_square(Cospan(rule.tL, rule.lp), Span(rule.l, rule.tK)):
        report.add("left-square-pullback",
                   "the interface is not the full preimage of the typed pattern")
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
    node_class: dict[str, str] = {n: n for n in k.nodes}

    def resolve(x: str) -> str:
        while node_class[x] != x:
            x = node_class[x]
        return x

    for group in spec.merge_nodes:
        for ident in group:
            if ident not in k.nodes:
                raise RuleError(f"r-spec-ill-formed: unknown interface node {ident!r}")
        reps = sorted(resolve(x) for x in group)
        for other in reps[1:]:
            node_class[other] = reps[0]
    node_rep = {n: resolve(n) for n in k.nodes}

    edge_class: dict[str, str] = {e: e for e in k.edges}

    def eresolve(x: str) -> str:
        while edge_class[x] != x:
            x = edge_class[x]
        return x

    for group in spec.merge_edges:
        for ident in group:
            if ident not in k.edges:
                raise RuleError(f"r-spec-ill-formed: unknown interface edge {ident!r}")
        reps = sorted(eresolve(x) for x in group)
        for other in reps[1:]:
            edge_class[other] = reps[0]
    edge_rep = {e: eresolve(e) for e in k.edges}
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
    report = validate_rule(rule)
    if not report.ok:
        raise RuleError(f"invalid-rule: {report}")
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
    """Re-check every defining property of a completed step."""
    report = Report()
    for name, mor in (("m", trace.m), ("alpha", trace.alpha), ("g_l", trace.g_l),
                      ("g_r", trace.g_r), ("u", trace.u),
                      ("u_prime", trace.u_prime), ("w", trace.w)):
        sub = validate_morphism(mor)
        if not sub.ok:
            report.extend(sub, prefix=f"{name}: ")
    if not report.ok:
        return report
    rule = trace.rule
    if not _maps_equal(compose(trace.m, trace.alpha), rule.tL):
        report.add("match-square", "alpha . m differs from tL")
    if not _maps_equal(compose(trace.u, trace.u_prime), rule.tK):
        report.add("mediator", "u' . u differs from tK")
    if not _maps_equal(compose(trace.u, trace.g_l), compose(rule.l, trace.m)):
        report.add("middle-square", "g_L . u differs from m . l")
    if not _maps_equal(compose(trace.u, trace.g_r), compose(rule.r, trace.w)):
        report.add("right-square", "g_R . u differs from w . r")
    if not _maps_equal(compose(trace.g_l, trace.alpha),
                       compose(trace.u_prime, rule.lp)):
        report.add("middle-square", "alpha . g_L differs from l' . u'")
    if not trace.u.is_injective():
        report.add("mediator", "interface embedding u is not injective")
    if not is_pullback_square(Cospan(trace.alpha, rule.tL),
                              Span(trace.m, identity(rule.L))):
        report.add("match-square", "the strong-match square is not a pullback")
    if not is_pullback_square(Cospan(trace.alpha, rule.lp),
                              Span(trace.g_l, trace.u_prime)):
        report.add("middle-square", "the deletion square is not a pullback")
    if not is_pushout_square(Span(trace.u, rule.r),
                             Cospan(trace.g_r, trace.w)):
        report.add("right-square", "the addition square is not a pushout")
    return report


def pbpo_step(rule: PbpoRule, match: Match, step: int = 0,
              verify: bool = True) -> tuple[LabeledGraph, RewriteTrace]:
    """Apply one PBPO+ step at a strong match.

    Host-derived elements of the result keep the smallest interface pair id
    of their merge class; elements created by the replacement get ids
    prefixed with the step index, so repeated runs produce identical traces.
    With ``verify`` on (the default) every square property of the completed
    trace is re-checked before it is returned.
    """
    recheck = check_strong_match(rule.tL, match.alpha)
    if recheck is None or not _maps_equal(recheck.m, match.m):
        raise StrongMatchError(
            "strong-match-failure: the supplied match is not a strong match for the rule")
    g_host = match.alpha.dom

    mid = pullback(Cospan(match.alpha, rule.lp))
    g_mid = mid.object
    g_l, u_prime = mid.left_leg, mid.right_leg

    # The unique embedding of the interface: over pair ids it is forced to
    # (m(l(k)), tK(k)) by the two commutation requirements.  Everything the
    # pullback route would establish is verified afterwards.
    u_nodes: dict[str, str] = {}
    for k_node in rule.K.sorted_nodes:
        cand = pair_id(match.m.node_map[rule.l.node_map[k_node]],
                       rule.tK.node_map[k_node])
        if cand not in g_mid.nodes:
            raise InternalMediatorError(
                f"internal-mediator-failure: interface node {k_node!r} has no image")
        u_nodes[k_node] = cand
    u_edges: dict[str, str] = {}
    for k_edge in rule.K.sorted_edges:
        cand = pair_id(match.m.edge_map[rule.l.edge_map[k_edge]],
                       rule.tK.edge_map[k_edge])
        if cand not in g_mid.edges:
            raise InternalMediatorError(
                f"internal-mediator-failure: interface edge {k_edge!r} has no image")
        u_edges[k_edge] = cand
    u = GraphMorphism(rule.K, g_mid, u_nodes, u_edges)
    if not validate_morphism(u).ok:
        raise InternalMediatorError("internal-mediator-failure: embedding is not a morphism")
    if not _maps_equal(compose(u, u_prime), rule.tK):
        raise InternalMediatorError("internal-mediator-failure: tK differs from u' . u")
    if not u.is_injective():
        raise InternalMediatorError("internal-mediator-failure: u is not injective")
    if not is_pullback_square(Cospan(match.m, g_l), Span(rule.l, u)):
        raise InternalMediatorError(
            "internal-mediator-failure: u is not the pullback of m along g_L")

    out = pushout(Span(u, rule.r))

    # Rename: classes touching the interface keep their smallest host pair
    # id; replacement-only classes are stamped with the step index.
    taken: set[str] = set()

    def fresh_name(members: tuple) -> str:
        host_ids = sorted(ident for side, ident in members if side == "0")
        if host_ids:
            cand = host_ids[0]
        else:
            cand = f"{step}:{sorted(ident for _, ident in members)[0]}"
        while cand in taken:
            cand += "'"
        taken.add(cand)
        return cand

    node_rename = {rep: fresh_name(members)
                   for rep, members in sorted(out.node_naming.items())}
    edge_rename = {rep: fresh_name(members)
                   for rep, members in sorted(out.edge_naming.items())}
    g_out = out.object.rename(node_rename, edge_rename)
    g_r = GraphMorphism(g_mid, g_out,
                        {n: node_rename[out.left_leg.node_map[n]] for n in g_mid.nodes},
                        {e: edge_rename[out.left_leg.edge_map[e]] for e in g_mid.edges})
    w = GraphMorphism(rule.R, g_out,
                      {n: node_rename[out.right_leg.node_map[n]] for n in rule.R.nodes},
                      {e: edge_rename[out.right_leg.edge_map[e]] for e in rule.R.edges})

    trace = RewriteTrace(rule=rule, g_in=g_host, g_mid=g_mid, g_out=g_out,
                         m=match.m, alpha=match.alpha, g_l=g_l, g_r=g_r,
                         u=u, u_prime=u_prime, w=w)
    if verify:
        report = verify_trace(trace)
        if not report.ok:
            raise InternalMediatorError(f"internal-mediator-failure: {report}")
    return g_out, trace


@dataclass(frozen=True)
class NormalizeResult:
    graph: LabeledGraph
    traces: tuple[RewriteTrace, ...]
    reached_fixpoint: bool

    @property
    def status(self) -> str:
        return "fixpoint" if self.reached_fixpoint else "step-limit-exceeded"

    @property
    def steps(self) -> int:
        return len(self.traces)


def normalize(g: LabeledGraph, rules: Sequence[PbpoRule],
              strategy: str = "first-rule-first-match",
              max_steps: Optional[int] = None) -> NormalizeResult:
    """Repeatedly apply the first rule that matches, at its first match.

    Runs until no rule matches or the step budget is exhausted; hitting the
    budget is reported through the result, not raised.
    """
    if strategy != "first-rule-first-match":
        raise ValueError(f"unknown strategy {strategy!r}")
    for rule in rules:
        report = validate_rule(rule)
        if not report.ok:
            raise RuleError(f"invalid-rule: {rule.name or '?'}: {report}")
    traces: list[RewriteTrace] = []
    current = g
    while max_steps is None or len(traces) < max_steps:
        for rule in rules:
            match = next(iter_matches(rule, current, check_rule=False), None)
            if match is not None:
                current, trace = pbpo_step(rule, match, step=len(traces))
                traces.append(trace)
                break
        else:
            return NormalizeResult(current, tuple(traces), True)
    # Budget exhausted; a further match may or may not exist.
    more = any(next(iter_matches(rule, current, check_rule=False), None) is not None
               for rule in rules)
    return NormalizeResult(current, tuple(traces), not more)
