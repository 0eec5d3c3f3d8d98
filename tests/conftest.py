import os
import time
from dataclasses import dataclass

import pytest
from hypothesis import settings

from pbpoplus import (Bdd, GraphMorphism, LabeledGraph, RhsSpec, TruthTable,
                      bdd_lattice, build_decision_tree, complete_rule,
                      oracle_reduce, reduce_bdd, unit_lattice)

from genhelpers import sweep_tables

# ``HYPOTHESIS_PROFILE=deep`` runs each property that does not pin its own
# ``max_examples`` on 2,000 examples instead of 100.
settings.register_profile("deep", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def unit():
    return unit_lattice()


@pytest.fixture(scope="session")
def lat2():
    return bdd_lattice(["x1", "x2"])


@pytest.fixture(scope="session")
def replace_rule(lat2):
    """Relabel one matched node (anything between bottom and the variable
    class) to the fixed variable x1."""
    pattern = LabeledGraph.build(lat2, {"a": "bot"})
    context = LabeledGraph.build(lat2, {"a": "Var"})
    interface_type = LabeledGraph.build(lat2, {"a": "bot"})
    t_l = GraphMorphism(pattern, context, {"a": "a"}, {})
    l_prime = GraphMorphism(interface_type, context, {"a": "a"}, {})
    return complete_rule(pattern, t_l, l_prime,
                         RhsSpec(node_labels={"a": "x1"}), name="replace-var")


@pytest.fixture(scope="session")
def keep_rule(lat2):
    """Match any single node and leave it untouched."""
    pattern = LabeledGraph.build(lat2, {"a": "bot"})
    context = LabeledGraph.build(lat2, {"a": "top"})
    interface_type = LabeledGraph.build(lat2, {"a": "top"})
    t_l = GraphMorphism(pattern, context, {"a": "a"}, {})
    l_prime = GraphMorphism(interface_type, context, {"a": "a"}, {})
    return complete_rule(pattern, t_l, l_prime, RhsSpec(), name="keep")


@pytest.fixture(scope="session")
def pq_table():
    return TruthTable.from_bits("0001", ["p", "q"])


@pytest.fixture()
def pq_tree(pq_table):
    return build_decision_tree(pq_table)


@dataclass
class SweepRun:
    table: TruthTable
    tree: Bdd
    reduced: Bdd
    result: object
    oracle: Bdd


@pytest.fixture(scope="session")
def bdd_sweep():
    """The criterion-7 corpus reduced with every trace kept, and the time
    the reductions took."""
    tables = sweep_tables()
    start = time.perf_counter()
    runs = []
    for table in tables:
        tree = build_decision_tree(table)
        reduced, result = reduce_bdd(tree)
        runs.append(SweepRun(table=table, tree=tree, reduced=reduced,
                             result=result, oracle=oracle_reduce(table)))
    elapsed = time.perf_counter() - start
    return runs, elapsed
