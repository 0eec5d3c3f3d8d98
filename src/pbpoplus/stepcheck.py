"""The check of a completed PBPO+ step, decided where the step changed its host.

:func:`_check_step` decides every property of a step beyond its match, and
by the patch lemma only at the construction's patch when the step's edit
record shows the lemma's premise (see ``docs/DESIGN.md``, "The patch lemma").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Mapping, Optional

from .errors import InternalMediatorError, Report
from .graph import GraphMorphism, LabeledGraph, _map, _sort
from .lattice import LabelLattice
from .limits import _commutes, _is_pullback_sort, _is_pushout_sort

if TYPE_CHECKING:
    from .rewriting import PbpoRule, RewriteTrace


def _check_square(report: Report, commutes: bool, is_limit: Callable[[], bool],
                  not_commuting: tuple[str, str], not_universal: tuple[str, str]) -> None:
    """Add ``not_commuting`` to the report if the square does not commute,
    else ``not_universal`` if ``is_limit()`` is false: only a commuting
    square has its universal property decided."""
    if not commutes:
        report.add(*not_commuting)
    elif not is_limit():
        report.add(*not_universal)


def _identity_on(keys: Mapping[str, str]) -> dict[str, str]:
    """The identity on the keys of ``keys``."""
    return dict(zip(keys, keys))


def _plain_over(alpha: Mapping[str, str], plain: Mapping[str, str]) -> dict[str, str]:
    """``plain . alpha``, ``None`` where ``alpha`` types onto an element of
    ``L'`` that is not plain."""
    return dict(zip(alpha, map(plain.get, alpha.values())))


def _apply(record: dict, base: tuple, removed: Collection[str],
           written: Mapping[str, str]) -> dict:
    """The map ``base`` builds, less the keys ``removed``, with ``written``.
    ``base`` is ``(build, *inputs)``: ``(dict, m)`` copies ``m``, and
    ``(_identity_on, ...)`` and ``(_plain_over, ...)`` build a leg's base.
    Every map a step writes is made here, and ``record`` keeps it under its
    id with ``base``, ``removed`` and ``written``: the step check takes the
    map to be its base at every other key.  So a map this returns must never
    be written again, or the record would be false."""
    out = base[0](*base[1:])
    for x in removed:
        del out[x]
    out.update(written)
    record[id(out)] = (out, base, removed, written)
    return out


def _graph(record: dict, lattice: LabelLattice, node_labels: dict[str, str],
           edge_labels: dict[str, str], src: dict[str, str], tgt: dict[str, str]) -> LabeledGraph:
    """The graph over maps :func:`_apply` made, its ids their keys, kept in
    ``record`` under its id."""
    g = LabeledGraph(lattice, frozenset(node_labels), frozenset(edge_labels), src, tgt,
                     node_labels, edge_labels)
    record[id(g)] = g
    return g


def _require_graph(record: dict, g: LabeledGraph, base: LabeledGraph, removed: Collection[str],
                   at_removed: set[str]) -> None:
    """Raise unless each edge of a graph the step built has a label and both
    endpoints among its nodes, which the step check takes as given.  If
    ``record`` shows its maps edited from the well-formed ``base``'s, less
    the nodes ``removed``, only the base's edges there, ``at_removed``, and
    the edges edited are looked at; else every edge is."""
    labels, src, tgt = g.edge_labels, g.src, g.tgt
    on_nodes, on_labels = record[id(g.node_labels)], record[id(labels)]
    on_src, on_tgt = record[id(src)], record[id(tgt)]
    if (on_nodes[2] is removed and on_nodes[1] == (dict, base.node_labels)
            and on_labels[1] == (dict, base.edge_labels)
            and on_src[1] == (dict, base.src) and on_tgt[1] == (dict, base.tgt)):
        edges = at_removed.union(*on_labels[2:], *on_src[2:], *on_tgt[2:])
    else:
        edges = labels.keys() | src.keys() | tgt.keys()
    unlabelled = edges.difference(labels)
    edges.difference_update(unlabelled)
    if (unlabelled.intersection(src) or unlabelled.intersection(tgt)
            or not g.nodes.issuperset(map(src.get, edges))
            or not g.nodes.issuperset(map(tgt.get, edges))):
        raise InternalMediatorError(
            "internal-mediator-failure: a constructed graph has a dangling edge")


def _acted(rule: PbpoRule, m: GraphMorphism, alpha: GraphMorphism, edges: bool) -> Iterator[str]:
    """The host elements of one sort typed onto an element of ``L'`` that is
    not plain, in ``m`` or ``alpha`` order.  A strong match types only
    ``m(L)`` onto ``tL(L)``, so when every other element of ``L'`` is plain
    only ``m(L)`` is looked at."""
    alpha_map, plain = _map(alpha, edges), rule._plain[edges]
    pool = _map(m, edges).values() if rule._plain_context[edges] else alpha_map
    return compress(pool, map(not_, map(plain.__contains__, map(alpha_map.get, pool))))


def _near(trace: RewriteTrace, patch: list[set[str]]) -> Optional[list[set[str]]]:
    """The node, then the edge ids to decide element by element, ``patch``
    and the edges at its nodes from the host's incidence lists, if the edit
    record on ``trace`` shows the premise of the patch lemma for ``patch``
    (``docs/DESIGN.md``), which is decided in O(patch); else ``None``."""
    record, host, mid, out = getattr(trace, "_edits", {}), trace.g_in, trace.g_mid, trace.g_out
    if not (record.get(id(mid)) is mid and record.get(id(out)) is out
            and len(host.nodes) == len(host.node_labels)
            and len(host.edges) == len(host.src) == len(host.tgt) == len(host.edge_labels)):
        return None
    (nodes, edges), alpha, gl, gr, up = patch, trace.alpha, trace.g_l, trace.g_r, trace.u_prime
    plain = trace.rule._plain
    made = ((mid.node_labels, (dict, host.node_labels), nodes),
            (out.node_labels, (dict, mid.node_labels), nodes),
            (gl.node_map, (_identity_on, alpha.node_map), nodes),
            (gr.node_map, (dict, gl.node_map), nodes),
            (up.node_map, (_plain_over, alpha.node_map, plain[0]), nodes),
            (mid.edge_labels, (dict, host.edge_labels), edges),
            (out.edge_labels, (dict, mid.edge_labels), edges),
            (gl.edge_map, (_identity_on, alpha.edge_map), edges),
            (gr.edge_map, (dict, gl.edge_map), edges),
            (up.edge_map, (_plain_over, alpha.edge_map, plain[1]), edges),
            (mid.src, (dict, host.src), edges), (mid.tgt, (dict, host.tgt), edges),
            (out.src, (dict, mid.src), edges), (out.tgt, (dict, mid.tgt), edges))
    for result, base, at in made:
        # Identical inputs compare in O(1); equal ones build an equal base.
        entry = record.get(id(result))
        if not (entry and entry[0] is result and entry[1] == base
                and at.issuperset(entry[2]) and at.issuperset(entry[3])):
            return None
    if not (nodes.issuperset(_acted(trace.rule, trace.m, alpha, False))
            and edges.issuperset(_acted(trace.rule, trace.m, alpha, True))):
        return None
    return [nodes, edges.union(*(host.incident_edges.get(n, ()) for n in nodes))]


@dataclass
class _Findings:
    """What the pass over one sort of ``G_K`` found, for valid legs."""

    patch: set[str]                 # the ids decided: the patch, with the edges at its nodes
    inside: set[str]                # the elements of G_K among them
    deletion_commutes: bool = True  # alpha . g_L = l' . u'
    middle: int = 0                 # size of the pullback of m along g_L


def _pass_over_g_k(trace: RewriteTrace, edges: bool, near: set[str]) -> Optional[_Findings]:
    """One sort of ``G_K`` decided element by element at the ids ``near``:
    ``None`` if ``g_L``, ``u'`` or ``g_R`` is invalid at an element, else
    what the squares need.

    Each leg must map exactly the elements of ``G_K`` into its codomain: it
    has as many keys as ``G_K`` has elements, and maps each element near
    there; elsewhere the premise of the patch lemma has decided it.  A label
    equal to the meet of its ``g_L`` and ``u'`` images' labels is below
    both, so the label conditions of those legs are looked at only where it
    is not; likewise ``g_R``'s, where ``G_R`` does not keep the label.  The
    edge pass checks the endpoints of all three legs; the node pass has
    found every node mapped.  An element not near counts as itself in the
    middle square."""
    rule = trace.rule
    ids, labels = _sort(trace.g_mid, edges)
    gl, up, gr = _map(trace.g_l, edges), _map(trace.u_prime, edges), _map(trace.g_r, edges)
    g_ids, g_labels = _sort(trace.g_in, edges)
    k_ids, k_labels = _sort(rule.Kp, edges)
    r_ids, r_labels = _sort(trace.g_out, edges)
    inside = near.intersection(ids)
    if not (len(gl) == len(up) == len(gr) == len(ids)
            and all(cod.issuperset(map(f.get, inside))
                    for f, cod in ((gl, g_ids), (up, k_ids), (gr, r_ids)))):
        return None
    alpha, lp = _map(trace.alpha, edges), _map(rule.lp, edges)
    over_m = Counter(_map(trace.m, edges).values())
    lat = trace.g_mid.lattice
    # A label that the meet memo holds for its images' labels is below both.
    above, known_meets = lat._above, lat._meets
    if edges:
        src, tgt = trace.g_mid.src, trace.g_mid.tgt
        g_src, g_tgt, k_src, k_tgt = trace.g_in.src, trace.g_in.tgt, rule.Kp.src, rule.Kp.tgt
        r_src, r_tgt = trace.g_out.src, trace.g_out.tgt
        gl_n, up_n, gr_n = trace.g_l.node_map, trace.u_prime.node_map, trace.g_r.node_map
    found = _Findings(near, inside,
                      middle=sum(n for g, n in over_m.items() if g not in near))
    for x, g, kp, r in zip(inside, map(gl.__getitem__, inside), map(up.__getitem__, inside),
                           map(gr.__getitem__, inside)):
        lab, g_lab, k_lab, r_lab = labels[x], g_labels[g], k_labels[kp], r_labels[r]
        if known_meets.get((g_lab, k_lab)) != lab:
            below = above.get(lab)
            if below is None or g_lab not in below or k_lab not in below:
                return None
        if r_lab != lab and r_lab not in above[lab]:
            return None
        if alpha[g] != lp[kp]:
            found.deletion_commutes = False
        if g in over_m:
            found.middle += over_m[g]
        if edges:
            s, t = src[x], tgt[x]
            if (g_src[g] != gl_n[s] or g_tgt[g] != gl_n[t] or k_src[kp] != up_n[s]
                    or k_tgt[kp] != up_n[t] or r_src[r] != gr_n[s] or r_tgt[r] != gr_n[t]):
                return None
    return found


def _check_step(trace: RewriteTrace, patch: Optional[list] = None) -> Report:
    """Every property of a step beyond its match, each decided once; the
    arrangement of the trace and the match are established by the caller.

    ``patch``, the construction's node and edge patch or ``None`` for whole
    sorts, is widened in place to every id of each sort unless the edit
    record shows its premise (see :func:`_near`), so it then holds every id
    at which ``G_R`` differs from the host.  One pass over ``G_K``, nodes
    then edges, checks ``g_L``, ``u'`` and ``g_R`` at each element near the
    patch and collects what the deletion, middle and addition squares need;
    ``u`` and ``w`` are ``K``- and ``R``-sized and validated whole.  A leg
    found invalid ends the check, with the defects named by the
    :func:`~pbpoplus.graph.validate_morphism` reports of the legs.  A square
    has its universal property decided only if it commutes, and no limit is
    built.
    """
    rule, u, u_prime = trace.rule, trace.u, trace.u_prime
    found = None
    if (u._report.ok and trace.w._report.ok
            and all(g.lattice == trace.g_mid.lattice
                    for g in (trace.g_in, trace.g_out, rule.Kp))):
        near = patch and _near(trace, patch)
        if not near:
            near = patch = [None, None] if patch is None else patch
            for edges in (False, True):
                patch[edges] = set().union(*(_sort(g, edges)[0]
                                             for g in (trace.g_in, trace.g_mid, trace.g_out)))
        nodes = _pass_over_g_k(trace, False, near[0])
        found = nodes and (nodes, _pass_over_g_k(trace, True, near[1]))
    report = Report()
    if not found or found[1] is None:
        for name in ("g_l", "g_r", "u", "u_prime", "w"):
            report.extend(getattr(trace, name)._report, prefix=f"{name}: ")
        return report
    sorts = tuple(zip((False, True), found))

    def is_middle_pullback(edges: bool, found: _Findings) -> bool:
        return _is_pullback_sort(rule.l, u, edges, found.middle)

    def is_deletion_pullback(edges: bool, found: _Findings) -> bool:
        # A pair of the patch over a host element outside it repeats that
        # element's own pair, so every pair of the patch must be over it.
        gl, alpha, fibres = _map(trace.g_l, edges), _map(trace.alpha, edges), rule._fibres[edges]
        over = [x for x in found.inside if gl[x] in found.patch]
        return len(over) == len(found.inside) and _is_pullback_sort(trace.g_l, u_prime, edges, sum(
            len(fibres[alpha[g]]) for g in found.patch if g in alpha), over)

    def is_addition_pushout(edges: bool, found: _Findings) -> bool:
        # Outside the patch an element of G_K is a class of its own, sent to
        # itself with its label.  So only the elements of G_R in the patch or
        # hit from u(K) or R are decided, with the elements of G_K in the
        # patch or among them: every other class goes to itself, outside them.
        gr = _map(trace.g_r, edges)
        out = found.patch.intersection(_sort(trace.g_out, edges)[0])
        out.update(map(gr.__getitem__, _map(u, edges).values()), _map(trace.w, edges).values())
        decided = found.inside.union(out.intersection(_sort(trace.g_mid, edges)[0]))
        return _is_pushout_sort(u, rule.r, trace.g_r, trace.w, edges, decided, out)

    def on_both(decide) -> bool:
        return all(decide(edges, findings) for edges, findings in sorts)

    if not all(_map(u_prime, edges)[v] == _map(rule.tK, edges)[k]
               for edges, _ in sorts for k, v in _map(u, edges).items()):
        report.add("mediator", "u' . u differs from tK")
    if not u.is_injective():
        report.add("mediator", "interface embedding u is not injective")
    _check_square(report, _commutes(rule.l, trace.m, u, trace.g_l),
                  lambda: on_both(is_middle_pullback),
                  ("middle-square", "g_L . u differs from m . l"),
                  ("mediator", "u is not the pullback of m along g_L"))
    _check_square(report, all(findings.deletion_commutes for findings in found),
                  lambda: on_both(is_deletion_pullback),
                  ("middle-square", "alpha . g_L differs from l' . u'"),
                  ("middle-square", "the deletion square is not a pullback"))
    _check_square(report, _commutes(u, trace.g_r, rule.r, trace.w),
                  lambda: on_both(is_addition_pushout),
                  ("right-square", "g_R . u differs from w . r"),
                  ("right-square", "the addition square is not a pushout"))
    return report
