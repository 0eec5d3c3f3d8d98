"""Lattice-labeled directed multigraphs and their morphisms.

Graphs are immutable values: node and edge identifiers are opaque strings,
every element carries a label from a shared :class:`~pbpoplus.lattice.LabelLattice`,
and parallel edges are first-class.  A morphism maps nodes to nodes and
edges to edges so that sources and targets commute and labels never
decrease: ``label_dom(x) <= label_cod(f(x))``.  Under this direction the
pattern of a rule gives lower bounds on host labels and the context type
gives upper bounds, pullbacks label elements with meets, and pushouts with
joins.

Unlabeled rewriting is the special case of the one-point lattice.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import LatticeError, MorphismError, Report
from .lattice import LabelLattice


@dataclass(frozen=True)
class LabeledGraph:
    lattice: LabelLattice
    nodes: frozenset[str]
    edges: frozenset[str]
    src: dict[str, str]
    tgt: dict[str, str]
    node_labels: dict[str, str]
    edge_labels: dict[str, str]

    @staticmethod
    def build(lattice: LabelLattice,
              nodes: Mapping[str, str],
              edges: Mapping[str, tuple[str, str, str]] | None = None) -> "LabeledGraph":
        """Convenience constructor: ``nodes`` maps id -> label and ``edges``
        maps id -> (src, tgt, label)."""
        edges = edges or {}
        return LabeledGraph(
            lattice=lattice,
            nodes=frozenset(nodes),
            edges=frozenset(edges),
            src={e: s for e, (s, _, _) in edges.items()},
            tgt={e: t for e, (_, t, _) in edges.items()},
            node_labels=dict(nodes),
            edge_labels={e: lab for e, (_, _, lab) in edges.items()},
        )

    @staticmethod
    def empty(lattice: LabelLattice) -> "LabeledGraph":
        return LabeledGraph.build(lattice, {}, {})

    @cached_property
    def sorted_nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.nodes))

    @cached_property
    def sorted_edges(self) -> tuple[str, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def out_edges(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for e in self.sorted_edges:
            s = self.src[e]
            if s in out:
                out[s].append(e)
        return {n: tuple(es) for n, es in out.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[str, ...]]:
        inc: dict[str, list[str]] = {n: [] for n in self.nodes}
        for e in self.sorted_edges:
            t = self.tgt[e]
            if t in inc:
                inc[t].append(e)
        return {n: tuple(es) for n, es in inc.items()}

    @cached_property
    def edges_by_endpoints(self) -> dict[tuple[str, str], tuple[str, ...]]:
        by_ends: dict[tuple[str, str], list[str]] = {}
        for e in self.sorted_edges:
            by_ends.setdefault((self.src[e], self.tgt[e]), []).append(e)
        return {k: tuple(v) for k, v in by_ends.items()}

    def edges_between(self, s: str, t: str) -> tuple[str, ...]:
        return self.edges_by_endpoints.get((s, t), ())

    @cached_property
    def incident_edges(self) -> dict[str, tuple[str, ...]]:
        inc: dict[str, list[str]] = {n: [] for n in self.nodes}
        for e in self.sorted_edges:
            inc[self.src[e]].append(e)
            if self.tgt[e] != self.src[e]:
                inc[self.tgt[e]].append(e)
        return {n: tuple(es) for n, es in inc.items()}

    @cached_property
    def _identity(self) -> "GraphMorphism":
        """:func:`identity` of this graph, kept: graphs are values."""
        return identity(self)

    @cached_property
    def _report(self) -> Report:
        """:func:`validate_graph`, kept: graphs are values."""
        return validate_graph(self)

    @cached_property
    def _plans(self) -> dict:
        """The search plans of :func:`~pbpoplus.matching._hom_search` from
        this graph as a pattern, one per tuple of open nodes, each built on
        first use; a search from a host keeps none here."""
        return {}

    def rename(self, node_map: Mapping[str, str],
               edge_map: Mapping[str, str]) -> "LabeledGraph":
        """Rewrite all identifiers through the given bijective maps."""
        nm = {n: node_map.get(n, n) for n in self.nodes}
        em = {e: edge_map.get(e, e) for e in self.edges}
        if len(set(nm.values())) != len(nm) or len(set(em.values())) != len(em):
            raise MorphismError("renaming must be injective")
        return LabeledGraph(
            lattice=self.lattice,
            nodes=frozenset(nm.values()),
            edges=frozenset(em.values()),
            src={em[e]: nm[self.src[e]] for e in self.edges},
            tgt={em[e]: nm[self.tgt[e]] for e in self.edges},
            node_labels={nm[n]: self.node_labels[n] for n in self.nodes},
            edge_labels={em[e]: self.edge_labels[e] for e in self.edges},
        )


def _carry_indexes(before: LabeledGraph, after: LabeledGraph,
                   patch: Sequence[set[str]]) -> None:
    """Give ``after`` the indexes ``before`` has built, patched where the two
    differ, so they need not be rebuilt from scratch.

    ``sorted_nodes``, ``sorted_edges``, ``incident_edges`` and
    ``edges_by_endpoints`` are carried over when ``before`` holds them.
    ``patch`` holds the node, then the edge ids outside which ``after`` and
    ``before`` have the same elements and endpoints; an edge there that has
    not moved is taken out of its entries and put back.  Only the patch is
    looked at, and each patched entry is what ``after`` would build itself.
    """
    built = before.__dict__
    nodes, edges = patch
    stale, fresh = edges.intersection(before.edges), edges.intersection(after.edges)
    gone = [n for n in nodes if n in before.nodes and n not in after.nodes]
    new = [n for n in nodes if n in after.nodes and n not in before.nodes]

    def patched(ids: Iterable[str], out: Iterable[str], into: Iterable[str]) -> tuple:
        kept = list(ids)
        for x in out:
            i = bisect_left(kept, x)
            if i < len(kept) and kept[i] == x:
                del kept[i]
        for x in into:
            insort(kept, x)
        return tuple(kept)

    def regrouped(index: dict, keys_of, keep_empty: bool) -> dict:
        # A stale edge leaves the entries of its keys in before, a fresh one
        # joins those of its keys in after.
        index = dict(index)
        joining: dict = {}
        for e in stale:
            for key in keys_of(before, e):
                joining.setdefault(key, set())
        for e in fresh:
            for key in keys_of(after, e):
                joining.setdefault(key, set()).add(e)
        for key, into in joining.items():
            edges = patched(index.pop(key, ()), stale, into)
            if edges or keep_empty:
                index[key] = edges
        return index

    carried = {}
    if "sorted_nodes" in built:
        carried["sorted_nodes"] = patched(built["sorted_nodes"], gone, new)
    if "sorted_edges" in built:
        carried["sorted_edges"] = patched(built["sorted_edges"], stale - after.edges,
                                          fresh - before.edges)
    if "incident_edges" in built:
        incident = regrouped(built["incident_edges"], lambda g, e: (g.src[e], g.tgt[e]), True)
        for n in gone:
            del incident[n]
        for n in new:
            incident.setdefault(n, ())
        carried["incident_edges"] = incident
    if "edges_by_endpoints" in built:
        carried["edges_by_endpoints"] = regrouped(
            built["edges_by_endpoints"], lambda g, e: ((g.src[e], g.tgt[e]),), False)
    after.__dict__.update(carried)


@dataclass(frozen=True)
class GraphMorphism:
    dom: LabeledGraph
    cod: LabeledGraph
    node_map: dict[str, str]
    edge_map: dict[str, str]

    def is_injective(self) -> bool:
        return (len(set(self.node_map.values())) == len(self.node_map)
                and len(set(self.edge_map.values())) == len(self.edge_map))

    def node_image(self) -> frozenset[str]:
        return frozenset(self.node_map.values())

    def edge_image(self) -> frozenset[str]:
        return frozenset(self.edge_map.values())

    @cached_property
    def _report(self) -> Report:
        """:func:`validate_morphism`, kept: morphisms are values."""
        return validate_morphism(self)


def identity(g: LabeledGraph) -> GraphMorphism:
    return GraphMorphism(g, g, dict(zip(g.nodes, g.nodes)), dict(zip(g.edges, g.edges)))


def compose(f: GraphMorphism, g: GraphMorphism) -> GraphMorphism:
    """Apply ``f`` first, then ``g`` (diagrammatic order)."""
    if f.cod != g.dom:
        raise MorphismError("domain-mismatch: cod of first must be dom of second")
    return GraphMorphism(
        dom=f.dom,
        cod=g.cod,
        node_map={n: g.node_map[v] for n, v in f.node_map.items()},
        edge_map={e: g.edge_map[v] for e, v in f.edge_map.items()},
    )


def validate_graph(g: LabeledGraph) -> Report:
    """Report dangling endpoints, missing labels, and foreign labels."""
    report = Report()
    for e in g.sorted_edges:
        if e not in g.src or g.src[e] not in g.nodes:
            report.add("dangling-endpoint", f"edge {e!r} has no source in the graph")
        if e not in g.tgt or g.tgt[e] not in g.nodes:
            report.add("dangling-endpoint", f"edge {e!r} has no target in the graph")
    for n in g.sorted_nodes:
        lab = g.node_labels.get(n)
        if lab is None:
            report.add("missing-label", f"node {n!r} has no label")
        elif lab not in g.lattice.elements:
            report.add("label-domain", f"node {n!r} labeled {lab!r} outside the lattice")
    for e in g.sorted_edges:
        lab = g.edge_labels.get(e)
        if lab is None:
            report.add("missing-label", f"edge {e!r} has no label")
        elif lab not in g.lattice.elements:
            report.add("label-domain", f"edge {e!r} labeled {lab!r} outside the lattice")
    clash = g.nodes & g.edges
    if clash:
        report.add("id-clash", f"ids used for both nodes and edges: {sorted(clash)}")
    return report


def validate_morphism(f: GraphMorphism) -> Report:
    """Report commutation failures, label-condition failures and labels
    outside the lattice (``label-domain``) by element.

    One pass over the domain in id order, nodes then edges, records each
    defect as it is found; on a valid morphism it costs one lookup per
    condition.  Keys of the maps outside the domain are reported last."""
    report = Report()
    dom, cod = f.dom, f.cod
    if dom.lattice != cod.lattice:
        report.add("lattice-mismatch", "dom and cod use different lattices")
        return report
    add = report.add
    above = dom.lattice._above
    node_map = f.node_map
    ends = (("source", dom.src, cod.src), ("target", dom.tgt, cod.tgt))
    mapped = []
    for kind, mapping, ids, dom_labels, cod_labels, cod_ids in (
            ("node", node_map, dom.sorted_nodes, dom.node_labels, cod.node_labels, cod.nodes),
            ("edge", f.edge_map, dom.sorted_edges, dom.edge_labels, cod.edge_labels, cod.edges)):
        mapped.append(0)
        for x, img in zip(ids, map(mapping.get, ids)):
            if img is None:
                add(f"unmapped-{kind}", f"{kind} {x!r} has no image")
                continue
            mapped[-1] += 1
            if img not in cod_ids:
                add("bad-target", f"{kind} {x!r} maps to unknown {kind} {img!r}")
                continue
            for end, dom_ends, cod_ends in ends if kind == "edge" else ():
                end_img = node_map.get(dom_ends[x])
                if end_img is not None and cod_ends[img] != end_img:
                    add(f"{end}-commutation", f"edge {x!r}: image {end} {cod_ends[img]!r} "
                        f"differs from mapped {end} {end_img!r}")
            lab, img_lab = dom_labels[x], cod_labels[img]
            if img_lab in above.get(lab, ()):
                continue
            if lab in above and img_lab in above:
                add("label-condition",
                    f"{kind} {x!r}: {lab!r} is not below {img_lab!r} at {img!r}")
            else:
                add("label-domain", f"{kind} {x!r} at {img!r}: labels {lab!r} and {img_lab!r} "
                    "are not both in the lattice")
    # A map with no more keys than mapped domain elements has no foreign key.
    for kind, mapping, ids, count in (("nodes", node_map, dom.nodes, mapped[0]),
                                      ("edges", f.edge_map, dom.edges, mapped[1])):
        extra = len(mapping) > count and set(mapping) - ids
        if extra:
            add("bad-domain", f"map defined on foreign {kind} {sorted(extra)}")
    return report


def _require_valid(error: type[Exception], code: str, *named: tuple[str, object]) -> None:
    """Raise ``error`` for the first of the named graphs, morphisms or rules
    whose kept ``_report`` is not ok; an empty name reads ``?``."""
    for name, x in named:
        if not x._report.ok:
            kind = ("graph" if isinstance(x, LabeledGraph)
                    else "morphism" if isinstance(x, GraphMorphism) else "rule")
            raise error(f"{code}: {kind} {name or '?'} is invalid: {x._report}")


def _require_type(error: type[Exception], code: str, kind: type, *values: object) -> None:
    """Raise ``error`` for the first of ``values`` that is not a ``kind``: a
    public entry's one check of its arguments' types."""
    for x in values:
        if not isinstance(x, kind):
            raise error(f"{code}: expected a {kind.__name__}, got {type(x).__name__}")


def _sort(g: LabeledGraph, edges: bool) -> tuple[frozenset[str], dict[str, str]]:
    """The ids and labels of one sort of ``g``."""
    return (g.edges, g.edge_labels) if edges else (g.nodes, g.node_labels)


def _map(f: GraphMorphism, edges: bool) -> dict[str, str]:
    return f.edge_map if edges else f.node_map


def _node_signature(g: LabeledGraph, n: str) -> tuple:
    out_labels = tuple(sorted(g.edge_labels[e] for e in g.out_edges[n]))
    in_labels = tuple(sorted(g.edge_labels[e] for e in g.in_edges[n]))
    return (g.node_labels[n], out_labels, in_labels)


def is_isomorphic(g: LabeledGraph, h: LabeledGraph) -> Optional[GraphMorphism]:
    """Search for a label-preserving structure-preserving bijection.

    Runs the backtracking search of :mod:`~pbpoplus.matching` for an
    injective homomorphism ``g -> h`` with each node confined to the nodes
    of ``h`` with its label and the labels of its out- and in-edges, and
    each edge to the edges with its label.  Between graphs of equal size
    such a homomorphism is a bijection whose inverse is a homomorphism too.
    The search takes the nodes in id order, on a copy of ``g`` renamed
    breadth first from the rarest signatures, so that each node but the
    first of its component is tried only among the neighbours of a node
    placed before it.  Returns a witness morphism or ``None``.
    """
    from .matching import _hom_search

    if g.lattice != h.lattice:
        raise LatticeError("isomorphism check needs a shared lattice")
    if len(g.nodes) != len(h.nodes) or len(g.edges) != len(h.edges):
        return None
    signatures = {n: _node_signature(g, n) for n in g.nodes}
    pools: dict[tuple, list[str]] = {}
    for n in h.sorted_nodes:
        pools.setdefault(_node_signature(h, n), []).append(n)
    if Counter(signatures.values()) != {sig: len(pool) for sig, pool in pools.items()}:
        return None
    ids: dict[str, str] = {}
    for first in sorted(g.sorted_nodes, key=lambda n: len(pools[signatures[n]])):
        queue = [first]
        for n in queue:
            if n not in ids:
                ids[n] = f"{len(ids):09d}"
                queue += [x for e in g.incident_edges[n] for x in (g.src[e], g.tgt[e])
                          if x not in ids]
    by_label: dict[str, set[str]] = {}
    for e in h.edges:
        by_label.setdefault(h.edge_labels[e], set()).add(e)
    found = next(_hom_search(g.rename(ids, {}), h, True,
                             {ids[n]: pools[sig] for n, sig in signatures.items()},
                             {e: by_label.get(g.edge_labels[e], ()) for e in g.edges}), None)
    return found and GraphMorphism(g, h, {n: found.node_map[x] for n, x in ids.items()},
                                   found.edge_map)


@dataclass(frozen=True)
class DisjointUnion:
    graph: LabeledGraph
    left: GraphMorphism
    right: GraphMorphism


def disjoint_union(g: LabeledGraph, h: LabeledGraph) -> DisjointUnion:
    """The pushout of the empty span: ids tagged ``0:``/``1:`` by side, and
    the two injections."""
    from .limits import Span, pushout

    if g.lattice != h.lattice:
        raise LatticeError("disjoint union needs a shared lattice")
    empty = LabeledGraph.empty(g.lattice)
    po = pushout(Span(GraphMorphism(empty, g, {}, {}), GraphMorphism(empty, h, {}, {})))
    return DisjointUnion(po.object, po.left_leg, po.right_leg)
