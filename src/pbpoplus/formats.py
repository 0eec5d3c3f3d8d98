"""Textual interchange for lattices, graphs, morphisms, rules, and traces.

One self-describing JSON shape serves every object kind; a workspace file
bundles named objects under ``lattices``/``graphs``/``morphisms``/``rules``
/``squares`` sections that may reference each other by name.  Loading is
strict: unknown names raise, omitted labels default to the lattice top,
omitted edge maps are accepted only when the node map induces them
uniquely, and the order relation of a lattice is closed reflexively and
transitively.  Serialization is canonical (sorted keys and members), so
identical objects yield byte-identical text.

The field-by-field layout is documented in ``docs/FORMATS.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from .errors import DanglingReferenceError, ParseError
from .graph import GraphMorphism, LabeledGraph, validate_graph, validate_morphism
from .lattice import LabelLattice, validate_lattice
from .matching import Match
from .rewriting import PbpoRule, RewriteTrace, RhsSpec, complete_rule, validate_rule


# ---------------------------------------------------------------- records


def lattice_record(lat: LabelLattice) -> dict:
    return {
        "elements": sorted(lat.elements),
        "order": sorted([a, b] for a, b in lat.order),
        "top": lat.top,
        "bottom": lat.bottom,
    }


def lattice_from_record(rec: Mapping[str, Any]) -> LabelLattice:
    try:
        elements = list(rec["elements"])
        order = [(a, b) for a, b in rec.get("order", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"parse-error: bad lattice record: {exc}") from exc
    for a, b in order:
        if a not in elements or b not in elements:
            raise ParseError(f"parse-error: order pair [{a!r}, {b!r}] uses unknown elements")
    return LabelLattice.from_order(elements, order,
                                   top=rec.get("top"), bottom=rec.get("bottom"))


def graph_record(g: LabeledGraph, lattice_ref: Optional[str] = None) -> dict:
    return {
        "lattice": lattice_ref if lattice_ref is not None else lattice_record(g.lattice),
        "nodes": [{"id": n, "label": g.node_labels[n]} for n in g.sorted_nodes],
        "edges": [{"id": e, "src": g.src[e], "tgt": g.tgt[e],
                   "label": g.edge_labels[e]} for e in g.sorted_edges],
    }


def _records(rec: Mapping[str, Any], key: str) -> list:
    """The list of objects under ``key`` of a graph record, empty if absent."""
    items = rec.get(key, [])
    if not isinstance(items, list) or not all(isinstance(item, Mapping) for item in items):
        raise ParseError(f"parse-error: graph {key!r} must be a list of objects, got {items!r}")
    return items


def graph_from_record(rec: Mapping[str, Any],
                      lattices: Optional[Mapping[str, LabelLattice]] = None) -> LabeledGraph:
    if not isinstance(rec, Mapping):
        raise ParseError(f"parse-error: a graph record must be an object, got {rec!r}")
    lat_ref = rec.get("lattice")
    if isinstance(lat_ref, str):
        if not lattices or lat_ref not in lattices:
            raise DanglingReferenceError(f"dangling-reference: lattice {lat_ref!r}")
        lat = lattices[lat_ref]
    elif isinstance(lat_ref, Mapping):
        lat = lattice_from_record(lat_ref)
    else:
        raise ParseError("parse-error: graph record needs a 'lattice' name or record")
    if lat.top is None:
        default = None
    else:
        default = lat.top
    nodes: dict[str, str] = {}
    for item in _records(rec, "nodes"):
        ident = item.get("id")
        if not isinstance(ident, str):
            raise ParseError(f"parse-error: node record without string id: {item!r}")
        if ident in nodes:
            raise ParseError(f"parse-error: duplicate node id {ident!r}")
        label = item.get("label", default)
        if label is None:
            raise ParseError(f"parse-error: node {ident!r} needs a label (lattice has no top)")
        nodes[ident] = label
    edges: dict[str, tuple[str, str, str]] = {}
    for item in _records(rec, "edges"):
        ident = item.get("id")
        if not isinstance(ident, str):
            raise ParseError(f"parse-error: edge record without string id: {item!r}")
        if ident in edges:
            raise ParseError(f"parse-error: duplicate edge id {ident!r}")
        label = item.get("label", default)
        if label is None:
            raise ParseError(f"parse-error: edge {ident!r} needs a label (lattice has no top)")
        try:
            edges[ident] = (item["src"], item["tgt"], label)
        except KeyError as exc:
            raise ParseError(f"parse-error: edge {ident!r} misses {exc}") from exc
    return LabeledGraph.build(lat, nodes, edges)


def induced_edge_map(dom: LabeledGraph, cod: LabeledGraph,
                     node_map: Mapping[str, str]) -> dict[str, str]:
    """The unique edge map compatible with the node map; error if none or
    several edges qualify for some domain edge."""
    leq = dom.lattice.leq
    edge_map: dict[str, str] = {}
    for e in dom.sorted_edges:
        s, t = node_map.get(dom.src[e]), node_map.get(dom.tgt[e])
        if s is None or t is None:
            raise ParseError(f"parse-error: node map misses an endpoint of edge {e!r}")
        cands = [c for c in cod.edges_between(s, t)
                 if leq(dom.edge_labels[e], cod.edge_labels[c])]
        if not cands:
            raise ParseError(f"parse-error: no image for edge {e!r} between "
                             f"{s!r} and {t!r}")
        if len(cands) > 1:
            raise ParseError(f"parse-error: edge map for {e!r} is ambiguous "
                             f"({sorted(cands)}); give edgeMap explicitly")
        edge_map[e] = cands[0]
    return edge_map


def morphism_record(f: GraphMorphism, dom_ref: Optional[str] = None,
                    cod_ref: Optional[str] = None) -> dict:
    return {
        "dom": dom_ref if dom_ref is not None else graph_record(f.dom),
        "cod": cod_ref if cod_ref is not None else graph_record(f.cod),
        "nodeMap": dict(sorted(f.node_map.items())),
        "edgeMap": dict(sorted(f.edge_map.items())),
    }


def _resolve_graph(ref: Any, graphs: Optional[Mapping[str, LabeledGraph]],
                   lattices: Optional[Mapping[str, LabelLattice]]) -> LabeledGraph:
    if isinstance(ref, str):
        if not graphs or ref not in graphs:
            raise DanglingReferenceError(f"dangling-reference: graph {ref!r}")
        return graphs[ref]
    if isinstance(ref, Mapping):
        return graph_from_record(ref, lattices)
    raise ParseError(f"parse-error: expected a graph name or record, got {ref!r}")


def morphism_from_record(rec: Mapping[str, Any],
                         graphs: Optional[Mapping[str, LabeledGraph]] = None,
                         lattices: Optional[Mapping[str, LabelLattice]] = None,
                         dom: Optional[LabeledGraph] = None,
                         cod: Optional[LabeledGraph] = None) -> GraphMorphism:
    if dom is None:
        dom = _resolve_graph(rec.get("dom"), graphs, lattices)
    if cod is None:
        cod = _resolve_graph(rec.get("cod"), graphs, lattices)
    node_map = dict(rec.get("nodeMap", {}))
    if "edgeMap" in rec:
        edge_map = dict(rec["edgeMap"])
    else:
        edge_map = induced_edge_map(dom, cod, node_map)
    return GraphMorphism(dom, cod, node_map, edge_map)


def rhs_spec_from_record(rec: Mapping[str, Any]) -> RhsSpec:
    fresh_nodes = {}
    for item in rec.get("freshNodes", []):
        fresh_nodes[item["id"]] = item["label"]
    fresh_edges = {}
    for item in rec.get("freshEdges", []):
        fresh_edges[item["id"]] = (item["src"], item["tgt"], item["label"])
    return RhsSpec(
        merge_nodes=tuple(tuple(g) for g in rec.get("mergeNodes", [])),
        merge_edges=tuple(tuple(g) for g in rec.get("mergeEdges", [])),
        node_labels=dict(rec.get("nodeLabels", {})),
        edge_labels=dict(rec.get("edgeLabels", {})),
        fresh_nodes=fresh_nodes,
        fresh_edges=fresh_edges,
    )


def rule_record(rule: PbpoRule) -> dict:
    return {
        "name": rule.name,
        "L": graph_record(rule.L),
        "K": graph_record(rule.K),
        "R": graph_record(rule.R),
        "Lp": graph_record(rule.Lp),
        "Kp": graph_record(rule.Kp),
        "l": {"nodeMap": dict(sorted(rule.l.node_map.items())),
              "edgeMap": dict(sorted(rule.l.edge_map.items()))},
        "r": {"nodeMap": dict(sorted(rule.r.node_map.items())),
              "edgeMap": dict(sorted(rule.r.edge_map.items()))},
        "tL": {"nodeMap": dict(sorted(rule.tL.node_map.items())),
               "edgeMap": dict(sorted(rule.tL.edge_map.items()))},
        "tK": {"nodeMap": dict(sorted(rule.tK.node_map.items())),
               "edgeMap": dict(sorted(rule.tK.edge_map.items()))},
        "lp": {"nodeMap": dict(sorted(rule.lp.node_map.items())),
               "edgeMap": dict(sorted(rule.lp.edge_map.items()))},
    }


def rule_from_record(rec: Mapping[str, Any],
                     graphs: Optional[Mapping[str, LabeledGraph]] = None,
                     lattices: Optional[Mapping[str, LabelLattice]] = None,
                     name: str = "") -> PbpoRule:
    name = rec.get("name", name)
    L = _resolve_graph(rec["L"], graphs, lattices)
    Lp = _resolve_graph(rec["Lp"], graphs, lattices)
    Kp = _resolve_graph(rec["Kp"], graphs, lattices)
    t_l = morphism_from_record(rec["tL"], dom=L, cod=Lp)
    l_prime = morphism_from_record(rec["lp"], dom=Kp, cod=Lp)
    if "rSpec" in rec:
        # Reduced authoring form: the interface and replacement are derived.
        return complete_rule(L, t_l, l_prime,
                             rhs_spec_from_record(rec["rSpec"]), name=name)
    try:
        K = _resolve_graph(rec["K"], graphs, lattices)
        R = _resolve_graph(rec["R"], graphs, lattices)
        l = morphism_from_record(rec["l"], dom=K, cod=L)
        r = morphism_from_record(rec["r"], dom=K, cod=R)
        t_k = morphism_from_record(rec["tK"], dom=K, cod=Kp)
    except KeyError as exc:
        raise ParseError(f"parse-error: rule record misses {exc}") from exc
    return PbpoRule(L=L, K=K, R=R, Lp=Lp, Kp=Kp, l=l, r=r, tL=t_l, tK=t_k,
                    lp=l_prime, name=name)


def match_record(match: Match, rule_ref: str = "rule", graph_ref: str = "graph") -> dict:
    return {
        "m": {"dom": f"{rule_ref}.L", "cod": graph_ref,
              "nodeMap": dict(sorted(match.m.node_map.items())),
              "edgeMap": dict(sorted(match.m.edge_map.items()))},
        "alpha": {"dom": graph_ref, "cod": f"{rule_ref}.Lp",
                  "nodeMap": dict(sorted(match.alpha.node_map.items())),
                  "edgeMap": dict(sorted(match.alpha.edge_map.items()))},
    }


def trace_record(trace: RewriteTrace) -> dict:
    def maps(f: GraphMorphism) -> dict:
        return {"nodeMap": dict(sorted(f.node_map.items())),
                "edgeMap": dict(sorted(f.edge_map.items()))}

    return {
        "rule": rule_record(trace.rule),
        "gIn": graph_record(trace.g_in),
        "gMid": graph_record(trace.g_mid),
        "gOut": graph_record(trace.g_out),
        "m": maps(trace.m),
        "alpha": maps(trace.alpha),
        "gL": maps(trace.g_l),
        "gR": maps(trace.g_r),
        "u": maps(trace.u),
        "uPrime": maps(trace.u_prime),
        "w": maps(trace.w),
    }


def serialize(obj: Any) -> str:
    """Canonical JSON text for any interchange object."""
    if isinstance(obj, LabelLattice):
        rec: Any = lattice_record(obj)
    elif isinstance(obj, LabeledGraph):
        rec = graph_record(obj)
    elif isinstance(obj, GraphMorphism):
        rec = morphism_record(obj)
    elif isinstance(obj, PbpoRule):
        rec = rule_record(obj)
    elif isinstance(obj, RewriteTrace):
        rec = trace_record(obj)
    elif isinstance(obj, Workspace):
        rec = workspace_record(obj)
    elif isinstance(obj, (dict, list)):
        rec = obj
    else:
        raise ParseError(f"parse-error: cannot serialize {type(obj).__name__}")
    return json.dumps(rec, indent=2, sort_keys=True) + "\n"


def parse_lattice(text: str) -> LabelLattice:
    return lattice_from_record(_load_json(text))


def parse_graph(text: str) -> LabeledGraph:
    return graph_from_record(_load_json(text))


def parse_morphism(text: str) -> GraphMorphism:
    return morphism_from_record(_load_json(text))


def parse_rule(text: str) -> PbpoRule:
    return rule_from_record(_load_json(text))


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"parse-error: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


# -------------------------------------------------------------- workspace


@dataclass
class Workspace:
    """Named objects loaded from interchange files."""

    lattices: dict[str, LabelLattice] = field(default_factory=dict)
    graphs: dict[str, LabeledGraph] = field(default_factory=dict)
    morphisms: dict[str, GraphMorphism] = field(default_factory=dict)
    rules: dict[str, PbpoRule] = field(default_factory=dict)
    squares: dict[str, dict] = field(default_factory=dict)

    def graph(self, name: str) -> LabeledGraph:
        if name not in self.graphs:
            raise DanglingReferenceError(f"dangling-reference: graph {name!r}")
        return self.graphs[name]

    def rule(self, name: str) -> PbpoRule:
        if name not in self.rules:
            raise DanglingReferenceError(f"dangling-reference: rule {name!r}")
        return self.rules[name]

    def morphism(self, name: str) -> GraphMorphism:
        if name not in self.morphisms:
            raise DanglingReferenceError(f"dangling-reference: morphism {name!r}")
        return self.morphisms[name]


def workspace_record(ws: Workspace) -> dict:
    return {
        "lattices": {k: lattice_record(v) for k, v in sorted(ws.lattices.items())},
        "graphs": {k: graph_record(v) for k, v in sorted(ws.graphs.items())},
        "morphisms": {k: morphism_record(v) for k, v in sorted(ws.morphisms.items())},
        "rules": {k: rule_record(v) for k, v in sorted(ws.rules.items())},
        "squares": dict(sorted(ws.squares.items())),
    }


def parse_workspace(paths, validate: bool = True) -> Workspace:
    """Load and merge one or more workspace files.

    Cross-references resolve across files (order-independently).  With
    ``validate`` on, every loaded object must pass its validator."""
    if isinstance(paths, str):
        paths = [paths]
    raw: dict[str, dict[str, Any]] = {"lattices": {}, "graphs": {},
                                      "morphisms": {}, "rules": {}, "squares": {}}
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = _load_json(handle.read())
        except OSError as exc:
            raise ParseError(f"parse-error: cannot read {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError(f"parse-error: {path}: workspace must be an object")
        for section in raw:
            for name, rec in data.get(section, {}).items():
                if name in raw[section]:
                    raise ParseError(
                        f"parse-error: {path}: duplicate {section[:-1]} name {name!r}")
                raw[section][name] = rec

    ws = Workspace()
    for name, rec in sorted(raw["lattices"].items()):
        ws.lattices[name] = lattice_from_record(rec)
    for name, rec in sorted(raw["graphs"].items()):
        ws.graphs[name] = graph_from_record(rec, ws.lattices)
    for name, rec in sorted(raw["morphisms"].items()):
        ws.morphisms[name] = morphism_from_record(rec, ws.graphs, ws.lattices)
    for name, rec in sorted(raw["rules"].items()):
        ws.rules[name] = rule_from_record(rec, ws.graphs, ws.lattices, name=name)
    for name, rec in sorted(raw["squares"].items()):
        if rec.get("kind") not in ("pushout", "pullback"):
            raise ParseError(f"parse-error: square {name!r} needs kind pushout|pullback")
        for key in ("inner", "outer"):
            legs = rec.get(key)
            if (not isinstance(legs, list) or len(legs) != 2
                    or any(not isinstance(x, str) for x in legs)):
                raise ParseError(f"parse-error: square {name!r} needs two {key} morphism names")
            for mname in legs:
                if mname not in ws.morphisms:
                    raise DanglingReferenceError(
                        f"dangling-reference: morphism {mname!r} in square {name!r}")
        ws.squares[name] = dict(rec)

    if validate:
        problems = []
        for name, lat in ws.lattices.items():
            report = validate_lattice(lat)
            if not report.ok:
                problems.append(f"lattice {name!r}: {report}")
        for name, g in ws.graphs.items():
            report = validate_graph(g)
            if not report.ok:
                problems.append(f"graph {name!r}: {report}")
        for name, f in ws.morphisms.items():
            report = validate_morphism(f)
            if not report.ok:
                problems.append(f"morphism {name!r}: {report}")
        for name, rule in ws.rules.items():
            report = validate_rule(rule)
            if not report.ok:
                problems.append(f"rule {name!r}: {report}")
        if problems:
            raise ParseError("parse-error: invalid workspace objects:\n"
                             + "\n".join(problems))
    return ws
