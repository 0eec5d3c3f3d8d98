"""The check of a completed PBPO+ step, decided where the step changed its host.

:func:`_check_step` decides every property of a step beyond its match:
the validity of ``g_L, g_R, u, u', w``, ``u' . u = tK``, ``u`` injective,
and that the middle, deletion and addition squares commute and, only then,
are limits.  It builds no limit: each square is decided by the counting
verdicts of :mod:`~pbpoplus.limits`.
:func:`~pbpoplus.rewriting.pbpo_step` and
:func:`~pbpoplus.rewriting.verify_trace` both run this check.

The construction reports, per sort, the ids it wrote: its *patch*.  The
patch lemma: let ``alpha`` and ``l'`` be morphisms, and let ``G_K`` have
the host's elements, labels and endpoints outside the patch, ``G_R``
have ``G_K``'s, ``g_L`` and ``g_R`` be the identity and ``u'`` be ``plain
. alpha`` (``plain`` sends a plain element of ``L'`` to the element of
``K'`` over it).  Then an element ``x`` of ``G_K`` outside the patch has
its host label, below ``alpha(x)``'s and so ``u'(x)``'s, hence their
meet, which ``G_R`` keeps; ``l'(u'(x)) = alpha(x)``; if ``x`` is an edge
between nodes outside the patch, every leg maps its endpoints as it
must; and in each square ``x`` counts as itself, the one pair over its
host element and a class of its own.  So whole-map comparisons in C
decide the premise, the patch and the edges at its nodes are decided
element by element, and the verdicts of the deletion and addition squares
are restricted to the patch.  A premise that fails widens the patch to
the whole sort, so a wrong patch is decided, and reported, as if none were
given.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import ne
from typing import TYPE_CHECKING, Callable, Optional

from .errors import Report
from .graph import _map, _sort
from .limits import _commutes, _is_pullback_sort, _is_pushout_sort

if TYPE_CHECKING:
    from .rewriting import RewriteTrace


def _check_square(report: Report, commutes: bool, is_limit: Callable[[], bool],
                  not_commuting: tuple[str, str], not_universal: tuple[str, str]) -> None:
    """Add ``not_commuting`` to the report if the square does not commute,
    else ``not_universal`` if ``is_limit()`` is false: only a commuting
    square has its universal property decided."""
    if not commutes:
        report.add(*not_commuting)
    elif not is_limit():
        report.add(*not_universal)


@dataclass
class _Findings:
    """What the pass over one sort of ``G_K`` found, for valid legs."""

    patch: set[str]                 # the verified patch, with the edges at its nodes
    inside: set[str]                # the elements of G_K in the patch
    deletion_commutes: bool = True  # alpha . g_L = l' . u'
    middle: int = 0                 # size of the pullback of m along g_L


def _outside(entries: dict, patch: set[str]) -> dict:
    """A copy of ``entries`` without the keys in ``patch``."""
    out = entries.copy()
    for x in patch:
        out.pop(x, None)
    return out


def _unchanged_outside(trace: RewriteTrace, edges: bool, patch: set[str]) -> bool:
    """The premise of the patch lemma (module docstring) on one sort: outside
    ``patch``, ``G_K`` is the host, ``G_R`` is ``G_K``, ``g_L`` and ``g_R``
    are the identity and ``u'`` is ``plain . alpha``."""
    host, mid, out = trace.g_in, trace.g_mid, trace.g_out
    alpha, plain = _map(trace.alpha, edges), trace.rule._plain[edges]
    pairs = [(_sort(host, edges)[1], _sort(mid, edges)[1]),
             (_sort(mid, edges)[1], _sort(out, edges)[1]),
             (dict(zip(alpha, map(plain.get, alpha.values()))), _map(trace.u_prime, edges))]
    if edges:
        pairs += [(host.src, mid.src), (host.tgt, mid.tgt), (mid.src, out.src),
                  (mid.tgt, out.tgt)]
    return (all(a == b or _outside(a, patch) == _outside(b, patch) for a, b in pairs)
            and all(sum(map(ne, f, f.values())) == sum(f[x] != x for x in patch if x in f)
                    for f in (_map(trace.g_l, edges), _map(trace.g_r, edges))))


def _pass_over_g_k(trace: RewriteTrace, edges: bool,
                   patch: list[Optional[set[str]]]) -> Optional[_Findings]:
    """One sort of ``G_K``, its patch (the node, then the edge one in
    ``patch``) decided element by element: ``None`` if ``g_L``, ``u'`` or
    ``g_R`` is invalid at an element, else what the squares need.

    A patch that is ``None`` or whose premise fails is replaced by the whole
    sort; the edges at a node of the patch are decided too.  Each leg must
    map exactly the elements of ``G_K`` into its codomain, which two set
    comparisons decide before the pass.  A label equal to the meet of its
    ``g_L`` and ``u'`` images' labels is below both, so the label conditions
    of those legs are looked at only where it is not; likewise ``g_R``'s,
    where ``G_R`` does not keep the label.  The edge pass checks the
    endpoints of all three legs; the node pass has found every node mapped.
    An element outside the patch counts as itself in the middle square."""
    rule = trace.rule
    ids, labels = _sort(trace.g_mid, edges)
    gl, up, gr = _map(trace.g_l, edges), _map(trace.u_prime, edges), _map(trace.g_r, edges)
    g_ids, g_labels = _sort(trace.g_in, edges)
    k_ids, k_labels = _sort(rule.Kp, edges)
    r_ids, r_labels = _sort(trace.g_out, edges)
    if not all(f.keys() == ids and cod.issuperset(f.values())
               for f, cod in ((gl, g_ids), (up, k_ids), (gr, r_ids))):
        return None
    if patch[edges] is None or not _unchanged_outside(trace, edges, patch[edges]):
        patch[edges] = set(g_ids).union(ids, r_ids)
    near = set(patch[edges])
    if edges:
        src, tgt = trace.g_mid.src, trace.g_mid.tgt
        at = patch[0].__contains__
        near.update(compress(src, map(at, src.values())), compress(tgt, map(at, tgt.values())))
    inside = near.intersection(ids)
    alpha, lp = _map(trace.alpha, edges), _map(rule.lp, edges)
    over_m = Counter(_map(trace.m, edges).values())
    lat = trace.g_mid.lattice
    # A label that the meet memo holds for its images' labels is below both.
    above, known_meets = lat._above, lat._meets
    if edges:
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
    sorts, is widened in place where its premise fails, so it then holds
    every id at which ``G_R`` differs from the host.  One pass over the
    patch of ``G_K``, nodes then edges, checks ``g_L``, ``u'`` and ``g_R``
    at each element and collects what the deletion, middle and addition
    squares need; ``u`` and ``w`` are ``K``- and ``R``-sized and validated
    whole.  A leg found invalid ends the check, with the defects named by
    the :func:`~pbpoplus.graph.validate_morphism` reports of the legs.  A
    square has its universal property decided only if it commutes, and no
    limit is built (see the module docstring).
    """
    rule, u, u_prime = trace.rule, trace.u, trace.u_prime
    found = None
    if (u._report.ok and trace.w._report.ok
            and all(g.lattice == trace.g_mid.lattice
                    for g in (trace.g_in, trace.g_out, rule.Kp))):
        patch = [None, None] if patch is None else patch
        nodes = _pass_over_g_k(trace, False, patch)
        found = nodes and (nodes, _pass_over_g_k(trace, True, patch))
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
