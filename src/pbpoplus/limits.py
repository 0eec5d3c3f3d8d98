"""Pushouts, pullbacks, preimages, and square verification.

The pullback of a cospan ``f : B -> D``, ``g : C -> D`` is the fibered
product, built in each sort on its own: every pair ``(b, c)`` with
``f(b) = g(c)``, in id order of ``b`` and then of ``c``, labelled with the
meet of the two labels; an edge pair runs between the pairs of its
endpoints.  The pushout of a span ``f : A -> B``, ``g : A -> C`` is the
disjoint union of the feet quotiented by the equivalence generated by
``f(a) ~ g(a)``: in each sort, the classes of the elements ``(side, id)``
(side ``"0"`` for ``B``, ``"1"`` for ``C``), in the order of their
smallest member, each labelled with the join of its members' labels; an
edge class takes its endpoints from its smallest member.

A pullback pair is named ``"x|y"`` and a pushout class ``"0:x"`` or
``"1:y"`` after its smallest member.  Two elements named alike raise
:class:`~pbpoplus.errors.SquareError` (``id-collision``) rather than
merge: ids that themselves contain ``|`` can render two pairs alike.

Whether a given square is a limit is decided by counting, with no limit
built.  The counting lemma: a commuting square with corner ``A``, legs
``p : A -> B`` and ``q : A -> C`` over ``f : B -> D`` and ``g : C -> D``
is a pullback iff, in each sort, the pairs ``(p(a), q(a))`` are distinct,
each ``a`` is labelled with the meet of its pair's labels, and there are

    sum over b in B of |g^-1(f(b))|

of them.  For then the forced mediator ``a -> (p(a), q(a))`` into the
canonical pullback is injective, onto because that sum is the canonical
pullback's size, and keeps labels, so it is an isomorphism.  Dually, a
commuting square closing the span ``f : A -> B``, ``g : A -> C`` with
``h : B -> D`` and ``k : C -> D`` is a pushout iff, in each sort, the
classes of ``B + C`` under ``f(a) ~ g(a)`` go to distinct elements that
cover ``D``, each labelled with the join of its class.  Only the apex
image is grouped into classes: by ``g``-fibre when ``f`` is injective,
else by a union-find.  :func:`_is_pullback_sort` and
:func:`_is_pushout_sort` decide one sort; a caller that knows the square
outside some elements may restrict both to the elements it decides.
Every square check of the package uses them: ``is_pullback_square``,
``is_pushout_square``, rule validation, the strong-match check and the
step check of :mod:`~pbpoplus.stepcheck`.

The exhaustive mediator enumeration :func:`enumerate_mediators` runs on
the homomorphism search of :mod:`~pbpoplus.matching`, its equations
narrowing candidates.  Every function here raises
:class:`~pbpoplus.errors.SquareError` naming an invalid morphism it is
given; each morphism is validated once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Collection, Optional

from .errors import MorphismError, NonCommutingSquareError, SquareError
from .graph import GraphMorphism, LabeledGraph, _map, _require_valid, _sort


@dataclass(frozen=True)
class Span:
    """Two morphisms out of a shared apex."""

    left: GraphMorphism
    right: GraphMorphism

    def __post_init__(self) -> None:
        if self.left.dom != self.right.dom:
            raise SquareError("invalid-span: the two morphisms have different domains")


@dataclass(frozen=True)
class Cospan:
    """Two morphisms into a shared target."""

    left: GraphMorphism
    right: GraphMorphism

    def __post_init__(self) -> None:
        if self.left.cod != self.right.cod:
            raise SquareError("invalid-cospan: the two morphisms have different codomains")


@dataclass(frozen=True)
class LimitResult:
    object: LabeledGraph
    left_leg: GraphMorphism
    right_leg: GraphMorphism
    # Constructed id -> origin: an (x, y) pair for pullbacks, a tuple of
    # (side, id) members for pushout classes.
    node_naming: dict[str, tuple]
    edge_naming: dict[str, tuple]


def pair_id(x: str, y: str) -> str:
    return f"{x}|{y}"


def _named(origins: list[tuple], ids: list[str], kind: str,
           what: str) -> dict[str, tuple]:
    """Id -> origin; two origins named alike raise instead of merging."""
    naming: dict[str, tuple] = {}
    for origin, ident in zip(origins, ids):
        if ident in naming:
            raise SquareError(f"id-collision: {what} {naming[ident]} and "
                              f"{origin} both render as {kind} {ident!r}")
        naming[ident] = origin
    return naming


def pullback(c: Cospan) -> LimitResult:
    """Fibered product of the cospan, with projection legs."""
    f, g = c.left, c.right
    _require_valid(SquareError, "invalid-cospan", ("left", f), ("right", g))
    B, C = f.dom, g.dom
    meet = B.lattice.meet
    sorts = []
    for edges, kind, b_ids, c_ids in ((False, "node", B.sorted_nodes, C.sorted_nodes),
                                      (True, "edge", B.sorted_edges, C.sorted_edges)):
        f_map, g_map = _map(f, edges), _map(g, edges)
        b_labels, c_labels = _sort(B, edges)[1], _sort(C, edges)[1]
        fibres: dict[str, list[str]] = {}
        for y in c_ids:
            fibres.setdefault(g_map[y], []).append(y)
        pairs = [(x, y) for x in b_ids for y in fibres.get(f_map[x], ())]
        naming = _named(pairs, [pair_id(x, y) for x, y in pairs], kind, "pairs")
        sorts.append((naming, {i: meet((b_labels[x], c_labels[y])) for i, (x, y) in naming.items()},
                      {i: x for i, (x, _) in naming.items()},
                      {i: y for i, (_, y) in naming.items()}))
    (node_naming, node_labels, *node_legs), (edge_naming, edge_labels, *edge_legs) = sorts

    obj = LabeledGraph(
        lattice=B.lattice,
        nodes=frozenset(node_naming),
        edges=frozenset(edge_naming),
        src={i: pair_id(B.src[x], C.src[y]) for i, (x, y) in edge_naming.items()},
        tgt={i: pair_id(B.tgt[x], C.tgt[y]) for i, (x, y) in edge_naming.items()},
        node_labels=node_labels,
        edge_labels=edge_labels,
    )
    left_leg = GraphMorphism(obj, B, node_legs[0], edge_legs[0])
    right_leg = GraphMorphism(obj, C, node_legs[1], edge_legs[1])

    # Monomorphisms are stable under pullback; a violation is an engine bug.
    if g.is_injective():
        assert left_leg.is_injective(), "pullback of an injective leg lost injectivity"
    if f.is_injective():
        assert right_leg.is_injective(), "pullback of an injective leg lost injectivity"
    return LimitResult(obj, left_leg, right_leg, node_naming, edge_naming)


class _UnionFind:
    def __init__(self, items) -> None:
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Keep the smaller tag as root so representatives are canonical.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def classes(self) -> dict:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def pushout(s: Span) -> LimitResult:
    """Quotient of the disjoint union of the feet along the shared apex."""
    f, g = s.left, s.right
    _require_valid(SquareError, "invalid-span", ("left", f), ("right", g))
    feet = {"0": f.cod, "1": g.cod}
    join = f.cod.lattice.join
    sorts = []
    for edges, kind in ((False, "node"), (True, "edge")):
        uf = _UnionFind([(side, x) for side, foot in feet.items()
                         for x in (foot.sorted_edges if edges else foot.sorted_nodes)])
        g_map, labels = _map(g, edges), {side: _sort(foot, edges)[1] for side, foot in feet.items()}
        for a, x in _map(f, edges).items():
            uf.union(("0", x), ("1", g_map[a]))
        # The elements go in sorted, so a class lists its members in order,
        # and the classes come in the order of their smallest members.
        classes = [tuple(members) for members in uf.classes().values()]
        naming = _named(classes, [f"{side}:{x}" for (side, x), *_ in classes], kind, "classes")
        reps: dict[str, dict[str, str]] = {"0": {}, "1": {}}
        for i, members in naming.items():
            for side, x in members:
                reps[side][x] = i
        sorts.append((naming, reps, {i: join(labels[side][x] for side, x in members)
                                     for i, members in naming.items()}))
    (node_naming, node_reps, node_labels), (edge_naming, edge_reps, edge_labels) = sorts
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    for i, ((side, x), *_) in edge_naming.items():
        foot = feet[side]
        src[i], tgt[i] = node_reps[side][foot.src[x]], node_reps[side][foot.tgt[x]]

    obj = LabeledGraph(
        lattice=f.cod.lattice,
        nodes=frozenset(node_naming),
        edges=frozenset(edge_naming),
        src=src,
        tgt=tgt,
        node_labels=node_labels,
        edge_labels=edge_labels,
    )
    left_leg = GraphMorphism(f.cod, obj, node_reps["0"], edge_reps["0"])
    right_leg = GraphMorphism(g.cod, obj, node_reps["1"], edge_reps["1"])
    return LimitResult(obj, left_leg, right_leg, node_naming, edge_naming)


@dataclass(frozen=True)
class PreimageResult:
    graph: LabeledGraph
    inclusion: GraphMorphism   # into dom(f), named by dom(f) ids
    projection: GraphMorphism  # onto dom(t)


def preimage(t: GraphMorphism, f: GraphMorphism) -> PreimageResult:
    """Subgraph of ``dom(f)`` that ``f`` maps onto the image of injective ``t``.

    Computed as the pullback of the cospan ``(t, f)``; since ``t`` is
    injective the pairs are keyed by their second component, so the result
    is named by ``dom(f)`` ids.  Labels are meets, which can sit strictly
    below the ``dom(f)`` labels.
    """
    if not t.is_injective():
        raise MorphismError("not-injective: preimage needs an injective typing")
    if t.cod != f.cod:
        raise MorphismError("domain-mismatch: preimage needs a shared codomain")
    pb = pullback(Cospan(t, f))
    node_map = {nid: pb.node_naming[nid][1] for nid in pb.object.nodes}
    edge_map = {eid: pb.edge_naming[eid][1] for eid in pb.object.edges}
    renamed = pb.object.rename(node_map, edge_map)
    inclusion = GraphMorphism(
        renamed, f.dom,
        {v: v for v in renamed.nodes},
        {e: e for e in renamed.edges})
    projection = GraphMorphism(
        renamed, t.dom,
        {node_map[nid]: pb.node_naming[nid][0] for nid in pb.object.nodes},
        {edge_map[eid]: pb.edge_naming[eid][0] for eid in pb.object.edges})
    return PreimageResult(renamed, inclusion, projection)


def _commutes(f: GraphMorphism, g: GraphMorphism, h: GraphMorphism,
              k: GraphMorphism) -> bool:
    """Whether ``g . f = k . h``, compared in place; ``f`` and ``h`` share a
    domain and every map is defined where the composites need it."""
    return all([*map(_map(g, e).__getitem__, _map(f, e).values())]
               == [*map(_map(k, e).__getitem__, map(_map(h, e).__getitem__, _map(f, e)))]
               for e in (False, True))


def _is_pullback_sort(p: GraphMorphism, q: GraphMorphism, edges: bool, size: int,
                      ids: Optional[Collection[str]] = None) -> bool:
    """Whether one sort of the corner of a commuting square with legs ``p``
    and ``q`` is a pullback, by the counting lemma of the module docstring:
    the pairs ``(p(a), q(a))`` of the corner elements ``ids`` (all by
    default) are distinct and ``size`` many, and each ``a`` is labelled with
    the meet of its pair's labels."""
    if edges:
        p_map, q_map, labels = p.edge_map, q.edge_map, p.dom.edge_labels
        p_labels, q_labels = p.cod.edge_labels, q.cod.edge_labels
    else:
        p_map, q_map, labels = p.node_map, q.node_map, p.dom.node_labels
        p_labels, q_labels = p.cod.node_labels, q.cod.node_labels
    ids = labels if ids is None else ids
    if not len(ids) == size == len({(p_map[a], q_map[a]) for a in ids}):
        return False
    # The meet memo answers a pair of labels met before without a call.
    known, meet = p.dom.lattice._meets, p.dom.lattice.meet
    for a in ids:
        label, key = labels[a], (p_labels[p_map[a]], q_labels[q_map[a]])
        if known.get(key) != label and meet(key) != label:
            return False
    return True


def _is_pushout_sort(f: GraphMorphism, g: GraphMorphism, h: GraphMorphism, k: GraphMorphism,
                     edges: bool, b_ids: Optional[Collection[str]] = None,
                     d_ids: Optional[Collection[str]] = None) -> bool:
    """Whether one sort of the corner ``D`` of a commuting square closing the
    span ``(f, g)`` with ``(h, k)`` is a pushout, by the counting lemma of
    the module docstring: the classes of the elements ``b_ids`` of ``B``
    (all by default) and of ``C`` go to distinct elements that are exactly
    ``d_ids`` (all of ``D`` by default), each labelled with its class's
    join.  Only the apex image is grouped into classes; every other element
    is a class of its own.  When ``f`` is injective each class is one
    ``g``-fibre's ``f``-image and its ``g``-image, so no union-find is
    built."""
    f_map, g_map, b_labels = _map(f, edges), _map(g, edges), _sort(f.cod, edges)[1]
    c_labels, d_labels = _sort(g.cod, edges)[1], _sort(h.cod, edges)[1]
    legs = {"0": (_map(h, edges), b_labels), "1": (_map(k, edges), c_labels)}
    f_image = set(f_map.values())
    if len(f_image) == len(f_map):
        fibres: dict[str, list[str]] = {}
        for a, x in f_map.items():
            fibres.setdefault(g_map[a], []).append(b_labels[x])
        classes = [(legs["1"][0][y], [*labels, c_labels[y]]) for y, labels in fibres.items()]
    else:
        uf = _UnionFind([("0", x) for x in f_map.values()] + [("1", y) for y in g_map.values()])
        for a, x in f_map.items():
            uf.union(("0", x), ("1", g_map[a]))
        classes = [(legs[side][0][x], [legs[s][1][y] for s, y in members])
                   for (side, x), members in uf.classes().items()]
    images = []
    join = h.cod.lattice.join
    for image, labels in classes:
        if d_labels[image] != join(labels):
            return False
        images.append(image)
    for (leg, labels), ids, glued in ((legs["0"], b_labels if b_ids is None else b_ids, f_image),
                                      (legs["1"], c_labels, set(g_map.values()))):
        for x in ids:
            if x not in glued:
                if d_labels[leg[x]] != labels[x]:
                    return False
                images.append(leg[x])
    d_ids = d_labels if d_ids is None else d_ids
    return (len(images) == len(d_ids) == len(set(images))
            and all(map(d_ids.__contains__, images)))


def _require_square(s: Span, c: Cospan, lined_up_with: str) -> None:
    """Raise on an invalid or misplaced leg, and on a square that does not
    commute."""
    _require_valid(SquareError, "invalid-square", ("span.left", s.left),
                   ("span.right", s.right), ("cospan.left", c.left),
                   ("cospan.right", c.right))
    if s.left.cod != c.left.dom or s.right.cod != c.right.dom:
        raise SquareError(f"invalid-square: square legs do not line up with the {lined_up_with}")
    if not _commutes(s.left, c.left, s.right, c.right):
        raise NonCommutingSquareError("candidate square does not commute")


def is_pullback_square(c: Cospan, s: Span) -> bool:
    """Whether the span closes the cospan as a genuine pullback square.

    The span supplies the candidate corner and its two legs ``(A -> B,
    A -> C)``; the cospan is ``(B -> D, C -> D)``.  Raises on an invalid
    leg and on a non-commuting square, which is distinct from a negative
    answer.  Decided by counting (module docstring), so no ids are made
    and none can collide.
    """
    _require_square(s, c, "cospan")
    return all(_is_pullback_sort(s.left, s.right, edges, sum(map(
        Counter(_map(c.right, edges).values()).__getitem__, _map(c.left, edges).values())))
        for edges in (False, True))


def is_pushout_square(s: Span, c: Cospan) -> bool:
    """Whether the cospan closes the span as a genuine pushout square.

    Raises on an invalid leg and on a non-commuting square."""
    _require_square(s, c, "span")
    return all(_is_pushout_sort(s.left, s.right, c.left, c.right, edges)
               for edges in (False, True))


def enumerate_mediators(dom: LabeledGraph,
                        cod: LabeledGraph,
                        pre: list[tuple[GraphMorphism, GraphMorphism]] = (),
                        post: list[tuple[GraphMorphism, GraphMorphism]] = (),
                        limit: Optional[int] = None) -> list[GraphMorphism]:
    """Exhaustively enumerate morphisms ``x : dom -> cod`` under equations.

    ``pre`` entries ``(p, q)`` require ``x . p = q`` (with ``p`` into
    ``dom``); ``post`` entries ``(p, q)`` require ``p . x = q`` (with ``p``
    out of ``cod``).  Used by the verification suite to confirm existence
    and uniqueness of mediating morphisms.  A pre-equation pins ``x(p(a))``
    to ``q(a)``, a post-equation confines ``x(y)`` to the fibre of ``p``
    over ``q(y)``; the shared homomorphism search then yields the first
    ``limit`` mediators in lexicographic order of their assignment.
    """
    from .matching import _hom_search

    for kind, equations in (("pre", pre), ("post", post)):
        for i, (p_m, q_m) in enumerate(equations):
            _require_valid(SquareError, "invalid-equation",
                           (f"{kind}[{i}].p", p_m), (f"{kind}[{i}].q", q_m))
    if not (all(p.cod == dom and q.dom == p.dom for p, q in pre)
            and all(p.dom == cod and q.dom == dom for p, q in post)):
        raise SquareError("invalid-equation: an equation is not attached to dom and cod")
    node_pools: dict[str, frozenset[str]] = {}
    edge_pools: dict[str, frozenset[str]] = {}
    for p_m, q_m in pre:
        for pools, p_map, q_map in ((node_pools, p_m.node_map, q_m.node_map),
                                    (edge_pools, p_m.edge_map, q_m.edge_map)):
            for a, key in p_map.items():
                pinned = frozenset((q_map[a],))
                if pools.setdefault(key, pinned) != pinned:
                    return []
    for p_m, q_m in post:
        for pools, p_map, q_map in ((node_pools, p_m.node_map, q_m.node_map),
                                    (edge_pools, p_m.edge_map, q_m.edge_map)):
            fibres: dict[str, set[str]] = {}
            for c, img in p_map.items():
                fibres.setdefault(img, set()).add(c)
            for y, img in q_map.items():
                fibre = fibres.get(img, set())
                pools[y] = pools[y] & fibre if y in pools else frozenset(fibre)
    found = _hom_search(dom, cod, False, node_pools, edge_pools)
    return list(islice(found, limit))


def pushout_mediators(result: LimitResult, candidate: Cospan,
                      limit: Optional[int] = None) -> list[GraphMorphism]:
    """All morphisms from a computed pushout to a competing cospan target."""
    return enumerate_mediators(
        result.object, candidate.left.cod,
        pre=[(result.left_leg, candidate.left), (result.right_leg, candidate.right)],
        limit=limit)


def pullback_mediators(result: LimitResult, candidate: Span,
                       limit: Optional[int] = None) -> list[GraphMorphism]:
    """All morphisms from a competing span apex into a computed pullback."""
    return enumerate_mediators(
        candidate.left.dom, result.object,
        post=[(result.left_leg, candidate.left), (result.right_leg, candidate.right)],
        limit=limit)
