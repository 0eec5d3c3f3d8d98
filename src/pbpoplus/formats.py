"""Textual interchange for lattices, graphs, morphisms, rules, and traces.

One self-describing JSON shape serves every object kind; a workspace file
bundles named objects under ``lattices``/``graphs``/``morphisms``/``rules``
/``squares`` sections that may reference each other by name.  Loading is
strict: every field is shape-checked by :func:`_field` before it is used,
and a field of the wrong shape raises :class:`ParseError` naming its JSON
path, such as ``rules.replace.tL.nodeMap.a``; unknown names raise
``dangling-reference``, omitted labels default to the lattice top,
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

from .errors import DanglingReferenceError, EngineError, ParseError
from .graph import GraphMorphism, LabeledGraph
from .lattice import LabelLattice, validate_lattice
from .matching import Match
from .rewriting import PbpoRule, RewriteTrace, RhsSpec, complete_rule


# ----------------------------------------------------------------- shapes


_REQUIRED = object()
_JSON = {str: "a string", list: "an array", Mapping: "an object", type(None): "null"}


def _at(at: str, *keys: Any) -> str:
    """The JSON path of ``keys`` below the path ``at``."""
    return ".".join(map(str, (at, *keys) if at else keys))


def _check(value: Any, kind: Any, at: str) -> Any:
    """``value``, the field at path ``at``, if it has the shape ``kind``: a
    type or a tuple of types, ``[k]`` for an array of ``k``, ``[k, k]`` for
    an array of exactly two ``k``, ``{str: k}`` for an object of ``k``.
    Otherwise a :class:`ParseError` names the first field that differs."""
    if isinstance(kind, list):
        _check(value, list, at)
        if len(kind) > 1 and len(value) != len(kind):
            raise ParseError(f"parse-error: {at}: expected {len(kind)} items, got {value!r}")
        for i, item in enumerate(value):
            _check(item, kind[0], _at(at, i))
    elif isinstance(kind, dict):
        for key, item in _check(value, Mapping, at).items():
            _check(item, kind[str], _at(at, key))
    elif not isinstance(value, kind):
        names = " or ".join(_JSON[k] for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ParseError(f"parse-error: {at}: expected {names}, got {value!r}")
    return value


def _field(rec: Mapping[str, Any], key: str, kind: Any, at: str,
           default: Any = _REQUIRED) -> Any:
    """``rec[key]`` of the object at path ``at``, checked by :func:`_check`;
    ``default``, if one is given, when ``rec`` has no ``key``."""
    if key in rec:
        return _check(rec[key], kind, _at(at, key))
    if default is _REQUIRED:
        raise ParseError(f"parse-error: {_at(at, key)}: missing")
    return default


def _named(table: Optional[Mapping[str, Any]], kind: str, name: str, at: str = "") -> Any:
    """The object called ``name`` in ``table``; ``dangling-reference`` if none."""
    if name not in (table or {}):
        raise DanglingReferenceError(f"dangling-reference: {kind} {name!r}"
                                     + (f" at {at}" if at else ""))
    return table[name]


def _maps(f: GraphMorphism) -> dict:
    return {"nodeMap": dict(sorted(f.node_map.items())),
            "edgeMap": dict(sorted(f.edge_map.items()))}


# ---------------------------------------------------------------- records


def lattice_record(lat: LabelLattice) -> dict:
    return {
        "elements": sorted(lat.elements),
        "order": sorted([a, b] for a, b in lat.order),
        "top": lat.top,
        "bottom": lat.bottom,
    }


def lattice_from_record(rec: Mapping[str, Any]) -> LabelLattice:
    return _lattice(_check(rec, Mapping, "lattice"), "lattice")


def _lattice(rec: Mapping[str, Any], at: str) -> LabelLattice:
    elements = _field(rec, "elements", [str], at)
    order = _field(rec, "order", [[str, str]], at, [])
    for i, (a, b) in enumerate(order):
        if a not in elements or b not in elements:
            raise ParseError(f"parse-error: {_at(at, 'order', i)}: pair [{a!r}, {b!r}] "
                             "uses unknown elements")
    top, bottom = (_field(rec, key, (str, type(None)), at, None) for key in ("top", "bottom"))
    return LabelLattice.from_order(elements, order, top=top, bottom=bottom)


def graph_record(g: LabeledGraph, lattice_ref: Optional[str] = None) -> dict:
    return {
        "lattice": lattice_ref if lattice_ref is not None else lattice_record(g.lattice),
        "nodes": [{"id": n, "label": g.node_labels[n]} for n in g.sorted_nodes],
        "edges": [{"id": e, "src": g.src[e], "tgt": g.tgt[e],
                   "label": g.edge_labels[e]} for e in g.sorted_edges],
    }


def graph_from_record(rec: Mapping[str, Any],
                      lattices: Optional[Mapping[str, LabelLattice]] = None) -> LabeledGraph:
    return _graph(_check(rec, Mapping, "graph"), "graph", lattices)


def _graph(rec: Mapping[str, Any], at: str,
           lattices: Optional[Mapping[str, LabelLattice]]) -> LabeledGraph:
    ref = _field(rec, "lattice", (str, Mapping), at)
    lat = (_named(lattices, "lattice", ref, _at(at, "lattice")) if isinstance(ref, str)
           else _lattice(ref, _at(at, "lattice")))
    label = _REQUIRED if lat.top is None else lat.top
    return LabeledGraph.build(lat, _elements(rec, "nodes", at, (), label),
                              _elements(rec, "edges", at, ("src", "tgt"), label))


def _elements(rec: Mapping[str, Any], key: str, at: str, ends: tuple[str, ...],
              label: Any = _REQUIRED) -> dict:
    """The array of node or edge objects at ``rec[key]`` by id: the label of
    each, or with ``ends`` its endpoints and label.  Ids must be unique."""
    found: dict = {}
    for i, item in enumerate(_field(rec, key, [Mapping], at, [])):
        where = _at(at, key, i)
        ident = _field(item, "id", str, where)
        if ident in found:
            raise ParseError(f"parse-error: {where}.id: duplicate id {ident!r}")
        fields = (*(_field(item, end, str, where) for end in ends),
                  _field(item, "label", str, where, label))
        found[ident] = fields if ends else fields[0]
    return found


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
        **_maps(f),
    }


def _graph_ref(rec: Mapping[str, Any], key: str, at: str,
               graphs: Optional[Mapping[str, LabeledGraph]],
               lattices: Optional[Mapping[str, LabelLattice]]) -> LabeledGraph:
    """The graph named, or given as a record, at ``rec[key]``."""
    ref = _field(rec, key, (str, Mapping), at)
    if isinstance(ref, str):
        return _named(graphs, "graph", ref, _at(at, key))
    return _graph(ref, _at(at, key), lattices)


def morphism_from_record(rec: Mapping[str, Any],
                         graphs: Optional[Mapping[str, LabeledGraph]] = None,
                         lattices: Optional[Mapping[str, LabelLattice]] = None,
                         dom: Optional[LabeledGraph] = None,
                         cod: Optional[LabeledGraph] = None) -> GraphMorphism:
    return _morphism(_check(rec, Mapping, "morphism"), "morphism", graphs, lattices, dom, cod)


def _morphism(rec: Mapping[str, Any], at: str,
              graphs: Optional[Mapping[str, LabeledGraph]] = None,
              lattices: Optional[Mapping[str, LabelLattice]] = None,
              dom: Optional[LabeledGraph] = None,
              cod: Optional[LabeledGraph] = None) -> GraphMorphism:
    dom = dom or _graph_ref(rec, "dom", at, graphs, lattices)
    cod = cod or _graph_ref(rec, "cod", at, graphs, lattices)
    node_map = dict(_field(rec, "nodeMap", {str: str}, at, {}))
    edge_map = _field(rec, "edgeMap", {str: str}, at, None)
    return GraphMorphism(dom, cod, node_map, induced_edge_map(dom, cod, node_map)
                         if edge_map is None else dict(edge_map))


def rhs_spec_from_record(rec: Mapping[str, Any]) -> RhsSpec:
    return _rhs_spec(_check(rec, Mapping, "rSpec"), "rSpec")


def _rhs_spec(rec: Mapping[str, Any], at: str) -> RhsSpec:
    return RhsSpec(
        merge_nodes=tuple(map(tuple, _field(rec, "mergeNodes", [[str]], at, []))),
        merge_edges=tuple(map(tuple, _field(rec, "mergeEdges", [[str]], at, []))),
        node_labels=dict(_field(rec, "nodeLabels", {str: str}, at, {})),
        edge_labels=dict(_field(rec, "edgeLabels", {str: str}, at, {})),
        fresh_nodes=_elements(rec, "freshNodes", at, ()),
        fresh_edges=_elements(rec, "freshEdges", at, ("src", "tgt")),
    )


def rule_record(rule: PbpoRule) -> dict:
    return {
        "name": rule.name,
        "L": graph_record(rule.L),
        "K": graph_record(rule.K),
        "R": graph_record(rule.R),
        "Lp": graph_record(rule.Lp),
        "Kp": graph_record(rule.Kp),
        **{key: _maps(getattr(rule, key)) for key in ("l", "r", "tL", "tK", "lp")},
    }


def rule_from_record(rec: Mapping[str, Any],
                     graphs: Optional[Mapping[str, LabeledGraph]] = None,
                     lattices: Optional[Mapping[str, LabelLattice]] = None,
                     name: str = "") -> PbpoRule:
    return _rule(_check(rec, Mapping, "rule"), "rule", graphs, lattices, name)


def _rule(rec: Mapping[str, Any], at: str,
          graphs: Optional[Mapping[str, LabeledGraph]],
          lattices: Optional[Mapping[str, LabelLattice]], name: str) -> PbpoRule:
    def graph(key: str) -> LabeledGraph:
        return _graph_ref(rec, key, at, graphs, lattices)

    def morphism(key: str, dom: LabeledGraph, cod: LabeledGraph) -> GraphMorphism:
        return _morphism(_field(rec, key, Mapping, at), _at(at, key), dom=dom, cod=cod)

    name = _field(rec, "name", str, at, name)
    L, Lp, Kp = graph("L"), graph("Lp"), graph("Kp")
    t_l, l_prime = morphism("tL", L, Lp), morphism("lp", Kp, Lp)
    if "rSpec" in rec:
        # Reduced authoring form: the interface and replacement are derived.
        spec = _rhs_spec(_field(rec, "rSpec", Mapping, at), _at(at, "rSpec"))
        try:
            return complete_rule(L, t_l, l_prime, spec, name=name)
        except EngineError as exc:
            raise ParseError(f"parse-error: {at}: {exc}") from exc
    K, R = graph("K"), graph("R")
    return PbpoRule(L=L, K=K, R=R, Lp=Lp, Kp=Kp, l=morphism("l", K, L),
                    r=morphism("r", K, R), tL=t_l, tK=morphism("tK", K, Kp),
                    lp=l_prime, name=name)


def match_record(match: Match, rule_ref: str = "rule", graph_ref: str = "graph") -> dict:
    return {
        "m": {"dom": f"{rule_ref}.L", "cod": graph_ref, **_maps(match.m)},
        "alpha": {"dom": graph_ref, "cod": f"{rule_ref}.Lp", **_maps(match.alpha)},
    }


def trace_record(trace: RewriteTrace) -> dict:
    return {
        "rule": rule_record(trace.rule),
        "gIn": graph_record(trace.g_in),
        "gMid": graph_record(trace.g_mid),
        "gOut": graph_record(trace.g_out),
        **{key: _maps(getattr(trace, attr)) for key, attr in (
            ("m", "m"), ("alpha", "alpha"), ("gL", "g_l"), ("gR", "g_r"), ("u", "u"),
            ("uPrime", "u_prime"), ("w", "w"))},
    }


def serialize(obj: Any) -> str:
    """Canonical JSON text for any interchange object."""
    for kind, record in ((LabelLattice, lattice_record), (LabeledGraph, graph_record),
                         (GraphMorphism, morphism_record), (PbpoRule, rule_record),
                         (RewriteTrace, trace_record), (Workspace, workspace_record),
                         ((dict, list), lambda rec: rec)):
        if isinstance(obj, kind):
            return json.dumps(record(obj), indent=2, sort_keys=True) + "\n"
    raise ParseError(f"parse-error: cannot serialize {type(obj).__name__}")


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
    # Rules that failed to load when the workspace was read unvalidated:
    # each error is raised when its rule is asked for.
    _failed_rules: dict[str, ParseError] = field(default_factory=dict, init=False,
                                                  repr=False, compare=False)

    def graph(self, name: str) -> LabeledGraph:
        return _named(self.graphs, "graph", name)

    def rule(self, name: str) -> PbpoRule:
        if name in self._failed_rules:
            raise self._failed_rules[name]
        return _named(self.rules, "rule", name)

    def morphism(self, name: str) -> GraphMorphism:
        return _named(self.morphisms, "morphism", name)


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
    ``validate`` on, every loaded object must pass its validator.  With it
    off, a rule that fails to load (say, a reduced-form rule whose
    completion fails) does not stop the load: its :class:`ParseError` is
    raised when :meth:`Workspace.rule` asks for that rule."""
    if isinstance(paths, str):
        paths = [paths]
    raw: dict[str, dict[str, Any]] = {"lattices": {}, "graphs": {},
                                      "morphisms": {}, "rules": {}, "squares": {}}
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = _check(_load_json(handle.read()), Mapping, path)
        except OSError as exc:
            raise ParseError(f"parse-error: cannot read {path}: {exc}") from exc
        for section, records in raw.items():
            for name, rec in _field(data, section, {str: Mapping}, "", {}).items():
                if name in records:
                    raise ParseError(
                        f"parse-error: {path}: duplicate {section[:-1]} name {name!r}")
                records[name] = rec

    ws = Workspace()
    for name, rec in sorted(raw["lattices"].items()):
        ws.lattices[name] = _lattice(rec, _at("lattices", name))
    for name, rec in sorted(raw["graphs"].items()):
        ws.graphs[name] = _graph(rec, _at("graphs", name), ws.lattices)
    for name, rec in sorted(raw["morphisms"].items()):
        ws.morphisms[name] = _morphism(rec, _at("morphisms", name), ws.graphs, ws.lattices)
    for name, rec in sorted(raw["rules"].items()):
        try:
            ws.rules[name] = _rule(rec, _at("rules", name), ws.graphs, ws.lattices, name)
        except ParseError as exc:
            if validate:
                raise
            ws._failed_rules[name] = exc
    for name, rec in sorted(raw["squares"].items()):
        at = _at("squares", name)
        if _field(rec, "kind", str, at) not in ("pushout", "pullback"):
            raise ParseError(f"parse-error: {at}.kind: expected pushout or pullback")
        for key in ("inner", "outer"):
            for i, leg in enumerate(_field(rec, key, [str, str], at)):
                _named(ws.morphisms, "morphism", leg, _at(at, key, i))
        ws.squares[name] = dict(rec)

    if validate:
        problems = []
        for kind, objects in (("lattice", ws.lattices), ("graph", ws.graphs),
                              ("morphism", ws.morphisms), ("rule", ws.rules)):
            for name, obj in objects.items():
                report = validate_lattice(obj) if kind == "lattice" else obj._report
                if not report.ok:
                    problems.append(f"{kind} {name!r}: {report}")
        if problems:
            raise ParseError("parse-error: invalid workspace objects:\n"
                             + "\n".join(problems))
    return ws
