"""Seeded workloads: their inputs, the timed call, and the correctness gate.

Each workload turns a seed into a list of operations during set-up;
``mixed_sizes`` says whether they differ enough in cost that a run must
cover whole passes over them to measure the same mix every time.  The
runner hands :meth:`prepare` an operation to get the call's argument,
times :meth:`call` on it alone, and then passes the output to
:meth:`check`, which compares it with a reference computed independently
of the rewrite engine.  ``prepare`` gives every call a fresh copy of its
input graph, so no call benefits from indexes a previous call cached on a
shared graph object.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pbpoplus as api

SWEEP_RANDOM = ((3, 50), (4, 50))   # (variables, tables) beside all 16 two-variable tables
LARGE_VARIABLES = 7
LARGE_TREES = 8
# (variables, step indices whose result graph becomes a match-all host)
MATCH_HOSTS = ((5, (10, 20, 30, 40)), (6, (20, 40, 60, 80)))


def variables(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(n))


def random_table(rng: random.Random, n: int) -> api.TruthTable:
    bits = "".join(rng.choice("01") for _ in range(2 ** n))
    return api.TruthTable.from_bits(bits, variables(n))


def balanced_table(rng: random.Random, n: int) -> api.TruthTable:
    """A random table with as many 1s as 0s.  Leaves merge first, so every
    seed then yields hosts with the same leaf counts at a given step."""
    bits = ["0", "1"] * 2 ** (n - 1)
    rng.shuffle(bits)
    return api.TruthTable.from_bits("".join(bits), variables(n))


def fresh_graph(g: api.LabeledGraph) -> api.LabeledGraph:
    """The same graph data under a new object, without cached indexes."""
    return dataclasses.replace(g)


def fresh_tree(tree: api.Bdd) -> api.Bdd:
    return dataclasses.replace(tree, graph=fresh_graph(tree.graph))


def graph_ids(g: api.LabeledGraph):
    yield from g.nodes
    yield from g.edges


# ------------------------------------------------------------- reductions


class _Reduction:
    """Shared gate of the two reduction workloads.

    An output is correct when it is a reduced BDD isomorphic to the
    unique-table oracle of the table, the run reached a fixpoint, and it
    took one step per node removed from the 2^(n+1) - 1 of the tree."""

    def __init__(self) -> None:
        self._oracles: dict[int, api.Bdd] = {}

    def _reduction_ok(self, index: int, table: api.TruthTable, out) -> bool:
        reduced, result = out
        if index not in self._oracles:
            self._oracles[index] = api.oracle_reduce(table)
        tree_nodes = 2 ** (len(table.variables) + 1) - 1
        return (result.reached_fixpoint
                and result.steps == tree_nodes - len(reduced.graph.nodes)
                and api.validate_bdd(reduced.graph, reduced.root).ok
                and api.is_reduced(reduced).reduced
                and api.is_isomorphic(reduced.graph, self._oracles[index].graph) is not None)

    def items(self, out) -> int:
        return out[1].steps

    def step_hosts(self, out) -> list[int]:
        """Host node count at each rewrite step."""
        return [len(t.g_in.nodes) for t in out[1].traces]

    def id_lengths(self, op, out):
        return map(len, graph_ids(out[0].graph))


class Sweep(_Reduction):
    """The acceptance-criterion-7 corpus: every two-variable table plus
    random three- and four-variable tables, each built and reduced."""

    name = "bdd-sweep"
    mixed_sizes = True

    def setup(self, seed: int) -> list:
        rng = random.Random(seed)
        tables = [api.TruthTable.from_bits(format(i, "04b"), ("p", "q"))
                  for i in range(16)]
        for n, count in SWEEP_RANDOM:
            tables += [random_table(rng, n) for _ in range(count)]
        return tables

    def prepare(self, op):
        return op

    def call(self, table):
        return api.reduce_bdd(api.build_decision_tree(table))

    def check(self, index: int, op, out) -> bool:
        return self._reduction_ok(index, op, out)


class Large(_Reduction):
    """Random seven-variable trees (255 nodes), built during set-up and
    reduced one after another."""

    name = "bdd-large"
    mixed_sizes = False

    def setup(self, seed: int) -> list:
        rng = random.Random(seed)
        tables = [random_table(rng, LARGE_VARIABLES) for _ in range(LARGE_TREES)]
        return [(t, api.build_decision_tree(t)) for t in tables]

    def prepare(self, op):
        return fresh_tree(op[1])

    def call(self, tree):
        return api.reduce_bdd(tree)

    def check(self, index: int, op, out) -> bool:
        return self._reduction_ok(index, op[0], out)


# ------------------------------------------------------------ match-all


def expected_match_count(rule_name: str, g: api.LabeledGraph) -> int:
    """Strong matches of a reduction rule in a BDD, counted from the graph
    structure alone.

    ``LEAF_b`` matches every ordered pair of distinct ``b``-leaves;
    ``MERGE-ISO_x`` every ordered pair of distinct ``x``-nodes with the same
    0-child and the same 1-child, the two children distinct;
    ``ELIM-VACUOUS`` every node whose 0- and 1-edges reach the same child.
    """
    children: dict[str, dict[str, str]] = {}
    for e in g.edges:
        children.setdefault(g.src[e], {})[g.edge_labels[e]] = g.tgt[e]
    if rule_name.startswith("LEAF_"):
        b = rule_name[len("LEAF_"):]
        k = sum(1 for n in g.nodes if n not in children and g.node_labels[n] == b)
        return k * (k - 1)
    if rule_name.startswith("MERGE-ISO_"):
        x = rule_name[len("MERGE-ISO_"):]
        groups = Counter((kids["0"], kids["1"]) for n, kids in children.items()
                         if g.node_labels[n] == x and kids["0"] != kids["1"])
        return sum(c * (c - 1) for c in groups.values())
    if rule_name == "ELIM-VACUOUS":
        return sum(1 for kids in children.values() if kids["0"] == kids["1"])
    raise ValueError(f"no structural count for rule {rule_name!r}")


def match_maps(match) -> tuple:
    return (match.m.node_map, match.m.edge_map,
            match.alpha.node_map, match.alpha.edge_map)


class MatchAll:
    """``find_matches`` of every reduction rule on hosts taken from partial
    reductions of a five- and a six-variable tree."""

    name = "match-all"
    mixed_sizes = True

    def __init__(self) -> None:
        self._reference: dict[int, list] = {}

    def setup(self, seed: int) -> list:
        rng = random.Random(seed)
        queries = []
        for n, picks in MATCH_HOSTS:
            tree = api.build_decision_tree(balanced_table(rng, n))
            _, result = api.reduce_bdd(tree, max_steps=max(picks) + 1)
            rules = api.reduction_rules(tree.variables, tree.graph.lattice)
            for step in picks:
                host = result.traces[step].g_out
                queries += [(rule, host) for rule in rules]
        return queries

    def prepare(self, op):
        rule, host = op
        return rule, fresh_graph(host)

    def call(self, query):
        return api.find_matches(*query)

    def check(self, index: int, op, out) -> bool:
        """The count must equal the structural count.  The first answer to a
        query must be sorted, duplicate-free, and pass the match-square
        check for every match; later answers must repeat it exactly."""
        rule, host = op
        if len(out) != expected_match_count(rule.name, host):
            return False
        maps = [match_maps(m) for m in out]
        reference = self._reference.get(index)
        if reference is not None:
            return maps == reference
        keys = [m.sort_key() for m in out]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return False
        if not all(m.m.cod.nodes == host.nodes and api.verify_match_square(m)
                   for m in out):
            return False
        self._reference[index] = maps
        return True

    def items(self, out) -> int:
        return len(out)

    def step_hosts(self, out) -> list[int]:
        return []

    def id_lengths(self, op, out):
        return map(len, graph_ids(op[1]))


WORKLOADS = {w.name: w for w in (Sweep, Large, MatchAll)}
