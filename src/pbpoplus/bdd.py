"""Binary decision diagrams as labeled graphs, and their reduction rules.

A BDD here is a single-rooted acyclic labeled graph over the BDD label
lattice: leaves and edges carry ``0``/``1``, internal nodes carry a
decision variable, every internal node has exactly one 0-successor edge
and one 1-successor edge, and no variable repeats along a path.  A BDD is
reduced when no two distinct nodes root isomorphic decision subgraphs and
no node sends both outgoing edges to the same child.

Reduction is implemented as a rewrite system of ``|vars| + 3`` rules:

* ``LEAF_b`` (one per truth value) merges two ``b``-labeled leaves;
* ``MERGE-ISO_x`` (one per variable) merges two ``x``-nodes that share
  both children, deleting their four decision edges and re-adding the two
  for the merged node;
* ``ELIM-VACUOUS`` drops a node whose two decision edges are parallel,
  redirecting its incoming edges to the child; the node label is erased
  through the interface (its pullback label is bottom), so the merge
  preserves the child's label.

Context nodes in the rule type graphs carry top labels and class-``Bool``
placeholder edges, so the surrounding host is typed without being
restricted and keeps its labels through every step.  A separate
unique-table construction (:func:`oracle_reduce`) provides the canonical
reduced diagram for cross-checking.

The rules depend only on the variables and the lattice, so each rule set
is built, completed and validated once per variable tuple and lattice
object: a small bounded memo keeps the graph and morphism fields of
each rule, and :func:`reduction_rules` returns new :class:`PbpoRule`
objects over them on every call.  Sharing them across reductions is sound
because graphs and morphisms are values, which the caches on them
(``_identity``, ``_report``) already assume; no rule and no rule verdict
is kept, so each new rule validates itself on first use, cheaply, from its
morphisms' kept reports.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Optional

from .errors import BddError, Report
from .graph import GraphMorphism, LabeledGraph, _require_type, identity
from .lattice import (_MEMO_SIZE, BOOL_CLASS, BOTTOM, FALSE, TOP, TRUE, VAR_CLASS,
                      LabelLattice, bdd_lattice)
from .rewriting import (NormalizeResult, PbpoRule, RhsSpec, complete_rule,
                        normalize)

MAX_VARIABLES = 16


@dataclass(frozen=True)
class TruthTable:
    """Outputs of a boolean function, indexed by assignment in binary order
    (the first variable is the most significant bit)."""

    variables: tuple[str, ...]
    outputs: tuple[bool, ...]

    def __post_init__(self) -> None:
        n = len(self.variables)
        if n > MAX_VARIABLES:
            raise BddError(f"too-many-variables: {n} > {MAX_VARIABLES}")
        if len(set(self.variables)) != n:
            raise BddError("duplicate variable names")
        if len(self.outputs) != 2 ** n:
            raise BddError(
                f"table needs {2 ** n} outputs for {n} variables, got {len(self.outputs)}")

    @staticmethod
    def from_bits(bits: str, variables: list[str] | tuple[str, ...]) -> "TruthTable":
        if set(bits) - {"0", "1"}:
            raise BddError(f"table bitstring must be over 0/1, got {bits!r}")
        return TruthTable(tuple(variables), tuple(b == "1" for b in bits))

    def value(self, assignment: Mapping[str, bool]) -> bool:
        idx = 0
        for v in self.variables:
            idx = (idx << 1) | (1 if assignment[v] else 0)
        return self.outputs[idx]

    def assignments(self):
        n = len(self.variables)
        for idx in range(2 ** n):
            yield {v: bool((idx >> (n - 1 - i)) & 1)
                   for i, v in enumerate(self.variables)}


@dataclass(frozen=True)
class Bdd:
    graph: LabeledGraph
    root: str
    variables: tuple[str, ...]


def build_decision_tree(table: TruthTable) -> Bdd:
    """The full binary decision tree of a table: 2^(n+1) - 1 nodes.

    Node ids encode the decision path from the root (``d``, ``d0``,
    ``d01``, ...), edge ids the path of their target.
    """
    lat = bdd_lattice(table.variables)
    n = len(table.variables)
    nodes: dict[str, str] = {}
    edges: dict[str, tuple[str, str, str]] = {}

    def grow(path: str) -> str:
        ident = "d" + path
        depth = len(path)
        if depth == n:
            idx = int(path, 2) if path else 0
            nodes[ident] = TRUE if table.outputs[idx] else FALSE
        else:
            nodes[ident] = table.variables[depth]
            for bit in ("0", "1"):
                child = grow(path + bit)
                edges["e" + path + bit] = (ident, child, bit)
        return ident

    root = grow("")
    graph = LabeledGraph.build(lat, nodes, edges)
    return Bdd(graph=graph, root=root, variables=table.variables)


def evaluate(b: Bdd, assignment: Mapping[str, bool]) -> bool:
    """Walk from the root, taking the 0-edge when the node's variable is
    false and the 1-edge otherwise; return the reached leaf's truth value."""
    missing = set(b.variables) - set(assignment)
    if missing:
        raise BddError(f"assignment misses variables {sorted(missing)}")
    g = b.graph
    node = b.root
    seen = 0
    while True:
        out = g.out_edges.get(node, ())
        if not out:
            lab = g.node_labels[node]
            if lab not in (FALSE, TRUE):
                raise BddError(f"invalid-bdd: leaf {node!r} labeled {lab!r}")
            return lab == TRUE
        var = g.node_labels[node]
        if var not in assignment:
            raise BddError(f"invalid-bdd: internal node {node!r} labeled {var!r}")
        want = TRUE if assignment[var] else FALSE
        nxt = [e for e in out if g.edge_labels[e] == want]
        if len(nxt) != 1:
            raise BddError(f"invalid-bdd: node {node!r} lacks a unique {want}-edge")
        node = g.tgt[nxt[0]]
        seen += 1
        if seen > len(g.nodes):
            raise BddError("invalid-bdd: evaluation does not terminate")


def _find_root(g: LabeledGraph) -> Optional[str]:
    roots = [n for n in g.sorted_nodes if not g.in_edges.get(n)]
    return roots[0] if len(roots) == 1 else None


def _topological_order(g: LabeledGraph) -> Optional[list[str]]:
    """The nodes of ``g``, each before its successors (by iterated removal of
    in-degree 0 nodes), or ``None`` if ``g`` has a directed cycle."""
    indeg = {n: len(g.in_edges[n]) for n in g.nodes}
    queue = [n for n in g.sorted_nodes if indeg[n] == 0]
    order: list[str] = []
    while queue:
        n = queue.pop()
        order.append(n)
        for e in g.out_edges[n]:
            t = g.tgt[e]
            indeg[t] -= 1
            if indeg[t] == 0:
                queue.append(t)
    return order if len(order) == len(g.nodes) else None


def validate_bdd(g: LabeledGraph, root: Optional[str] = None) -> Report:
    """Check the defining BDD conditions plus acyclicity.

    A graph that :func:`~pbpoplus.graph.validate_graph` finds malformed gets
    that report, read from the graph's kept verdict.  Every check is one
    pass over the graph, so the time is linear in its size (times the
    number of variables), not in the number of paths through it."""
    report = Report()
    report.extend(g._report)
    if not report.ok:
        return report
    if not g.nodes:
        report.add("empty", "a BDD needs at least one node")
        return report
    variables = {lab for lab in g.lattice.elements
                 if lab not in (FALSE, TRUE, VAR_CLASS, BOOL_CLASS, TOP, BOTTOM)}
    roots = [n for n in g.sorted_nodes if not g.in_edges.get(n)]
    if len(roots) != 1:
        report.add("single-root", f"expected one in-degree-0 node, found {roots}")
    elif root is not None and roots[0] != root:
        report.add("single-root", f"designated root {root!r} is not the source {roots[0]!r}")

    order = _topological_order(g)
    if order is None:
        report.add("cycle", "the graph contains a directed cycle")
        return report

    for e in g.sorted_edges:
        if g.edge_labels[e] not in (FALSE, TRUE):
            report.add("edge-label", f"edge {e!r} labeled {g.edge_labels[e]!r}")
    for n in g.sorted_nodes:
        out = g.out_edges[n]
        lab = g.node_labels[n]
        if not out:
            if lab not in (FALSE, TRUE):
                report.add("leaf-label", f"leaf {n!r} labeled {lab!r}")
        else:
            if lab not in variables:
                report.add("internal-label", f"internal node {n!r} labeled {lab!r}")
            out_labels = sorted(g.edge_labels[e] for e in out)
            if out_labels != [FALSE, TRUE]:
                report.add("out-degree",
                           f"node {n!r} has outgoing labels {out_labels}, expected one 0 and one 1")
    if report.violations or len(roots) != 1:
        return report

    # No variable twice along any path: with one root every node lies on a
    # path from it, so a variable repeats exactly when some node's variable
    # labels a node below it.  Children come first in reverse topological
    # order, so each node's set of variables below is built from theirs.
    below: dict[str, frozenset[str]] = {}
    for n in reversed(order):
        under = frozenset().union(*(below[g.tgt[e]] for e in g.out_edges[n]))
        lab = g.node_labels[n]
        if lab in variables:
            if lab in under:
                report.add("repeated-variable",
                           f"variable {lab!r} repeats on a path from {n!r}")
            under = under | {lab}
        below[n] = under
    return report


@dataclass(frozen=True)
class ReducedCheck:
    reduced: bool
    isomorphic_pair: Optional[tuple[str, str]] = None
    vacuous_node: Optional[str] = None


def is_reduced(b: Bdd) -> ReducedCheck:
    """Decide reducedness, with a witness for a failure.

    Two nodes root isomorphic decision subgraphs exactly when their
    unfoldings agree.  Nodes are keyed bottom-up by hash-consed integers,
    as in the unique table of :func:`oracle_reduce`: a leaf by its label, an
    internal node by its label and the keys of its 0- and 1-children, so
    equal keys mean equal unfoldings.  A graph with a directed cycle is no
    BDD and raises ``invalid-bdd``."""
    g = b.graph
    for n in g.sorted_nodes:
        out = g.out_edges[n]
        targets = {g.tgt[e] for e in out}
        if out and len(targets) == 1:
            return ReducedCheck(False, vacuous_node=n)
    order = _topological_order(g)
    if order is None:
        raise BddError("invalid-bdd: the graph contains a directed cycle")
    unique: dict[tuple, int] = {}
    key: dict[str, int] = {}
    for n in reversed(order):
        out = g.out_edges[n]
        if not out:
            shape: tuple = ("leaf", g.node_labels[n])
        else:
            children = {g.edge_labels[e]: key[g.tgt[e]] for e in out}
            shape = ("node", g.node_labels[n], children.get(FALSE), children.get(TRUE))
        key[n] = unique.setdefault(shape, len(unique))
    by_key: dict[int, str] = {}
    for n in g.sorted_nodes:
        if key[n] in by_key:
            return ReducedCheck(False, isomorphic_pair=(by_key[key[n]], n))
        by_key[key[n]] = n
    return ReducedCheck(True)


def _require_bdd_lattice(lat: LabelLattice) -> list[str]:
    needed = {FALSE, TRUE, VAR_CLASS, BOOL_CLASS, TOP, BOTTOM}
    if not needed <= lat.elements:
        raise BddError("bad-lattice: not a BDD label lattice")
    return sorted(lat.elements - needed)


def leaf_rule(b: str, lat: LabelLattice) -> PbpoRule:
    """Merge two distinct ``b``-labeled leaves.

    The pattern is two isolated ``b``-leaves; the context node accepts the
    whole rest of the host, with placeholder edges onto both leaves for
    their parents.  Nothing is deleted; the replacement merges the pair.
    """
    _require_bdd_lattice(lat)
    if b not in (FALSE, TRUE):
        raise BddError(f"bad-lattice: leaf label must be 0 or 1, got {b!r}")
    pattern = LabeledGraph.build(lat, {"u": b, "v": b})
    context = LabeledGraph.build(
        lat,
        {"u": b, "v": b, "c": TOP},
        {"cc": ("c", "c", BOOL_CLASS),
         "cu": ("c", "u", BOOL_CLASS),
         "cv": ("c", "v", BOOL_CLASS)})
    t_l = GraphMorphism(pattern, context, {"u": "u", "v": "v"}, {})
    spec = RhsSpec(merge_nodes=(("u", "v"),))
    return complete_rule(pattern, t_l, identity(context), spec,
                         name=f"LEAF_{b}")


def merge_iso_rule(x: str, lat: LabelLattice) -> PbpoRule:
    """Merge two ``x``-nodes whose 0- and 1-decisions lead to the same
    children.

    The four pattern edges are deleted through the interface and two fresh,
    correctly labeled decision edges are added for the merged node."""
    variables = _require_bdd_lattice(lat)
    if x not in variables:
        raise BddError(f"unknown-variable: {x!r}")
    pattern = LabeledGraph.build(
        lat,
        {"x": x, "y": x, "z": BOTTOM, "u": BOTTOM},
        {"xz": ("x", "z", FALSE), "xu": ("x", "u", TRUE),
         "yz": ("y", "z", FALSE), "yu": ("y", "u", TRUE)})
    context_nodes = {"x": x, "y": x, "z": TOP, "u": TOP, "c": TOP}
    context_edges = {
        "xz": ("x", "z", FALSE), "xu": ("x", "u", TRUE),
        "yz": ("y", "z", FALSE), "yu": ("y", "u", TRUE),
        "cc": ("c", "c", BOOL_CLASS),
        "cx": ("c", "x", BOOL_CLASS), "cy": ("c", "y", BOOL_CLASS),
        "cz": ("c", "z", BOOL_CLASS), "cu": ("c", "u", BOOL_CLASS),
        "zc": ("z", "c", BOOL_CLASS), "uc": ("u", "c", BOOL_CLASS),
        "zu": ("z", "u", BOOL_CLASS), "uz": ("u", "z", BOOL_CLASS),
    }
    context = LabeledGraph.build(lat, context_nodes, context_edges)
    t_l = GraphMorphism(pattern, context,
                        {n: n for n in pattern.nodes},
                        {e: e for e in pattern.edges})
    interface_type = LabeledGraph.build(
        lat, context_nodes,
        {e: v for e, v in context_edges.items() if e not in pattern.edges})
    l_prime = GraphMorphism(interface_type, context,
                            {n: n for n in interface_type.nodes},
                            {e: e for e in interface_type.edges})
    spec = RhsSpec(
        merge_nodes=(("x", "y"),),
        fresh_edges={"mz": ("x", "z", FALSE), "mu": ("x", "u", TRUE)})
    return complete_rule(pattern, t_l, l_prime, spec, name=f"MERGE-ISO_{x}")


def elim_vacuous_rule(lat: LabelLattice) -> PbpoRule:
    """Remove a node whose two decision edges target the same child.

    The pattern is a pair of parallel 0/1 edges.  Both edges are deleted
    through the interface, the decision node's label is erased there (the
    interface type labels it bottom, so the pullback meet is bottom), and
    the replacement merges it into the child, which redirects every
    incoming edge and keeps the child's label."""
    _require_bdd_lattice(lat)
    pattern = LabeledGraph.build(
        lat,
        {"x": BOTTOM, "y": BOTTOM},
        {"e0": ("x", "y", FALSE), "e1": ("x", "y", TRUE)})
    context = LabeledGraph.build(
        lat,
        {"x": VAR_CLASS, "y": TOP, "c": TOP},
        {"e0": ("x", "y", FALSE), "e1": ("x", "y", TRUE),
         "cc": ("c", "c", BOOL_CLASS),
         "cx": ("c", "x", BOOL_CLASS),
         "cy": ("c", "y", BOOL_CLASS),
         "yc": ("y", "c", BOOL_CLASS)})
    t_l = GraphMorphism(pattern, context,
                        {"x": "x", "y": "y"},
                        {"e0": "e0", "e1": "e1"})
    interface_type = LabeledGraph.build(
        lat,
        {"x": BOTTOM, "y": TOP, "c": TOP},
        {"cc": ("c", "c", BOOL_CLASS),
         "cx": ("c", "x", BOOL_CLASS),
         "cy": ("c", "y", BOOL_CLASS),
         "yc": ("y", "c", BOOL_CLASS)})
    l_prime = GraphMorphism(interface_type, context,
                            {n: n for n in interface_type.nodes},
                            {e: e for e in interface_type.edges})
    spec = RhsSpec(merge_nodes=(("x", "y"),))
    return complete_rule(pattern, t_l, l_prime, spec, name="ELIM-VACUOUS")


# (variables, id(lattice)) -> (lattice, the fields of each rule).  The entry
# holds its lattice, so the id in its key names no other object meanwhile.
_RULE_PARTS: dict[tuple[tuple[str, ...], int], tuple[LabelLattice, list[dict]]] = {}


def _rule_parts(variables: tuple[str, ...], lat: LabelLattice) -> list[dict]:
    """The fields of each reduction rule over ``lat``, built and validated
    on the first call for this variable tuple and lattice object."""
    key = (variables, id(lat))
    entry = _RULE_PARTS.get(key)
    if entry is None:
        rules = [leaf_rule(FALSE, lat), leaf_rule(TRUE, lat)]
        rules.extend(merge_iso_rule(x, lat) for x in variables)
        rules.append(elim_vacuous_rule(lat))
        entry = lat, [{f.name: getattr(rule, f.name) for f in fields(PbpoRule)}
                      for rule in rules]
        if len(_RULE_PARTS) >= _MEMO_SIZE:
            _RULE_PARTS.pop(next(iter(_RULE_PARTS)), None)
        _RULE_PARTS[key] = entry
    return entry[1]


def reduction_rules(variables: tuple[str, ...] | list[str],
                    lat: Optional[LabelLattice] = None) -> list[PbpoRule]:
    """The ``|vars| + 3`` reduction rules, leaves first: new rule objects
    on every call, over parts built once per variable tuple and lattice."""
    lat = lat or bdd_lattice(variables)
    return [PbpoRule(**parts) for parts in _rule_parts(tuple(variables), lat)]


def reduce_bdd(b: Bdd, max_steps: Optional[int] = None, keep_traces: bool = True
               ) -> tuple[Bdd, NormalizeResult]:
    """Run the reduction rules to a fixpoint; each step removes one node.
    ``max_steps`` and ``keep_traces`` are passed to :func:`normalize`."""
    _require_type(BddError, "invalid-bdd", Bdd, b)
    report = validate_bdd(b.graph, b.root)
    if not report.ok:
        raise BddError(f"invalid-bdd: {report}")
    rules = reduction_rules(b.variables, b.graph.lattice)
    result = normalize(b.graph, rules, max_steps=max_steps, keep_traces=keep_traces)
    root = _find_root(result.graph)
    if root is None:
        raise BddError("invalid-bdd: reduction lost the single root")
    reduced = Bdd(graph=result.graph, root=root, variables=b.variables)
    return reduced, result


def oracle_reduce(table: TruthTable) -> Bdd:
    """Canonical reduced ordered BDD via a bottom-up unique table.

    Hashes ``(variable, 0-child, 1-child)`` with vacuous nodes elided;
    independent of the rewrite engine and used to cross-check it."""
    lat = bdd_lattice(table.variables)
    n = len(table.variables)
    nodes: dict[str, str] = {}
    edges: dict[str, tuple[str, str, str]] = {}
    unique: dict[tuple, str] = {}
    counter = 0

    def leaf(value: bool) -> str:
        key = ("leaf", value)
        if key not in unique:
            ident = "b1" if value else "b0"
            nodes[ident] = TRUE if value else FALSE
            unique[key] = ident
        return unique[key]

    def build(level: int, offset: int) -> str:
        nonlocal counter
        if level == n:
            return leaf(table.outputs[offset])
        width = 2 ** (n - level - 1)
        lo = build(level + 1, offset)
        hi = build(level + 1, offset + width)
        if lo == hi:
            return lo
        key = (table.variables[level], lo, hi)
        if key not in unique:
            counter += 1
            ident = f"v{counter}"
            nodes[ident] = table.variables[level]
            edges[f"{ident}e0"] = (ident, lo, FALSE)
            edges[f"{ident}e1"] = (ident, hi, TRUE)
            unique[key] = ident
        return unique[key]

    root = build(0, 0)
    graph = LabeledGraph.build(lat, nodes, edges)
    return Bdd(graph=graph, root=root, variables=table.variables)
