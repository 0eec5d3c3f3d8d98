import contextlib
import copy
import io
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbpoplus import (DanglingReferenceError, EngineError, GraphMorphism, LabeledGraph,
                      ParseError, bdd_lattice, find_matches, unit_lattice)
from pbpoplus.cli import main
from pbpoplus.formats import (Workspace, graph_from_record, graph_record, morphism_record,
                              morphism_from_record, parse_graph, parse_lattice,
                              parse_morphism, parse_rule, parse_workspace,
                              rule_record, serialize, trace_record)

from genhelpers import diamond_lattice, random_graph, random_morphism_into, random_rule

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_lattice_round_trip(lat2):
    assert parse_lattice(serialize(lat2)) == lat2


def test_graph_round_trip(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1", "b": "0"},
                           {"e1": ("a", "b", "0"), "e2": ("a", "b", "1")})
    assert parse_graph(serialize(g)) == g


def test_graph_round_trip_random():
    rng = random.Random(19)
    for lat in (unit_lattice(), diamond_lattice(), bdd_lattice(["p", "q"])):
        for _ in range(5):
            g = random_graph(rng, lat, max_nodes=5, max_edges=6)
            assert parse_graph(serialize(g)) == g


def test_morphism_round_trip(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1"}, {})
    h = LabeledGraph.build(lat2, {"b": "Var"}, {})
    f = GraphMorphism(g, h, {"a": "b"}, {})
    assert parse_morphism(serialize(f)) == f


def test_rule_round_trip(replace_rule):
    parsed = parse_rule(serialize(replace_rule))
    assert parsed == replace_rule


def test_serialize_is_deterministic(pq_tree):
    assert serialize(pq_tree.graph) == serialize(pq_tree.graph)


def test_omitted_labels_default_to_top(unit):
    rec = {"lattice": {"elements": ["*"], "order": [], "top": "*", "bottom": "*"},
           "nodes": [{"id": "a"}], "edges": []}
    g = graph_from_record(rec)
    assert g.node_labels["a"] == "*"


def test_induced_edge_map(lat2):
    g = LabeledGraph.build(lat2, {"a": "x1", "b": "0"}, {"e": ("a", "b", "0")})
    h = LabeledGraph.build(lat2, {"u": "x1", "v": "Bool"}, {"f": ("u", "v", "0")})
    f = morphism_from_record({"nodeMap": {"a": "u", "b": "v"}}, dom=g, cod=h)
    assert f.edge_map == {"e": "f"}


def test_ambiguous_edge_map_rejected(unit):
    g = LabeledGraph.build(unit, {"a": "*", "b": "*"}, {"e": ("a", "b", "*")})
    h = LabeledGraph.build(unit, {"u": "*", "v": "*"},
                           {"f1": ("u", "v", "*"), "f2": ("u", "v", "*")})
    with pytest.raises(ParseError, match="ambiguous"):
        morphism_from_record({"nodeMap": {"a": "u", "b": "v"}}, dom=g, cod=h)


def test_parse_error_has_location():
    with pytest.raises(ParseError, match="line"):
        parse_graph("{not json")


def test_workspace_fixture_loads_rule_via_reduced_form():
    ws = parse_workspace(str(FIXTURES / "variable_replace.json"))
    rule = ws.rule("replace")
    assert rule.R.node_labels == {"a": "x1"}
    host = ws.graph("host")
    assert len(find_matches(rule, host)) == 1


def test_workspace_dangling_reference(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"graphs": {"g": {"lattice": "nope", "nodes": []}}}')
    with pytest.raises(DanglingReferenceError):
        parse_workspace(str(bad))


def test_workspace_duplicate_name(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"lattices": {"u": {"elements": ["*"], "order": [], '
                 '"top": "*", "bottom": "*"}}}')
    b.write_text('{"lattices": {"u": {"elements": ["*"], "order": [], '
                 '"top": "*", "bottom": "*"}}}')
    with pytest.raises(ParseError, match="duplicate"):
        parse_workspace([str(a), str(b)])


def test_workspace_validates_objects(tmp_path):
    bad = tmp_path / "invalid.json"
    bad.write_text(
        '{"lattices": {"u": {"elements": ["*"], "order": [], "top": "*", '
        '"bottom": "*"}}, "graphs": {"g": {"lattice": "u", "nodes": '
        '[{"id": "a", "label": "weird"}]}}}')
    with pytest.raises(ParseError, match="invalid workspace"):
        parse_workspace(str(bad))
    ws = parse_workspace(str(bad), validate=False)
    assert "g" in ws.graphs


def test_trace_record_contains_all_pieces(replace_rule, lat2):
    from pbpoplus import pbpo_step

    host = LabeledGraph.build(lat2, {"g": "x2"})
    (match,) = find_matches(replace_rule, host)
    _, trace = pbpo_step(replace_rule, match)
    rec = trace_record(trace)
    assert set(rec) >= {"rule", "gIn", "gMid", "gOut", "m", "alpha", "gL",
                        "gR", "u", "uPrime", "w"}
    text = serialize(trace)
    assert '"gMid"' in text


def test_round_trip_all_fixture_objects():
    for name in ("variable_replace.json", "squares.json"):
        ws = parse_workspace(str(FIXTURES / name))
        for lat in ws.lattices.values():
            assert parse_lattice(serialize(lat)) == lat
        for g in ws.graphs.values():
            assert parse_graph(serialize(g)) == g
        for f in ws.morphisms.values():
            assert parse_morphism(serialize(f)) == f
        for rule in ws.rules.values():
            assert parse_rule(serialize(rule)) == rule


# ------------------------------------------------ mutated workspaces


WRONG_VALUES = (None, 0, 2.5, True, "", [], {}, ["a"], {"a": "b"}, [1, 2, 3], [["a", "b"]])


def _fields(value):
    """``(container, key)`` of every field at any depth below ``value``."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield value, key
        yield from _fields(item)


def mutated(record, rng):
    """A copy of ``record`` with one field, at any depth, retyped, dropped,
    pointed at a missing name, or duplicated."""
    record = copy.deepcopy(record)
    holder, key = rng.choice(list(_fields(record)))
    op = rng.choice(("retype", "drop", "dangle", "duplicate"))
    if op == "drop":
        del holder[key]
    elif op == "dangle" and isinstance(holder[key], str):
        holder[key] = "missing"
    elif op == "dangle" and isinstance(holder, dict):
        holder["missing"] = holder.pop(key)
    elif op == "duplicate" and isinstance(holder, list):
        holder.insert(key, copy.deepcopy(holder[key]))
    else:
        holder[key] = copy.deepcopy(rng.choice(WRONG_VALUES))
    return record


def random_workspace(rng):
    """The record of a workspace holding one of each random object, under
    the names ``lat``, ``host``, ``f``, ``rule`` and ``sq``."""
    lat = rng.choice((unit_lattice(), diamond_lattice(), bdd_lattice(["p", "q"])))
    host = random_graph(rng, lat, max_nodes=4, max_edges=4)
    ws = Workspace(lattices={"lat": lat}, graphs={"host": host},
                   morphisms={"f": random_morphism_into(rng, host)},
                   rules={"rule": random_rule(rng, lat)},
                   squares={"sq": {"kind": "pullback", "inner": ["f", "f"],
                                   "outer": ["f", "f"]}})
    return json.loads(serialize(ws))


# Each base: fixture file (or None for a random workspace), rule, graph, square.
BASES = [("variable_replace.json", "replace", "host", "good"),
         ("squares.json", "replace", "apex", "good"),
         (None, "rule", "host", "sq")]


@pytest.fixture(scope="module")
def ws_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "ws.json"


def _write_mutation(ws_file, fixture, seed):
    rng = random.Random(seed)
    base = (json.loads((FIXTURES / fixture).read_text()) if fixture
            else random_workspace(rng))
    ws_file.write_text(json.dumps(mutated(base, rng)))
    return str(ws_file)


@given(st.sampled_from(BASES), st.integers(0, 2 ** 32 - 1))
@settings(deadline=None)
def test_a_mutated_workspace_parses_or_raises_an_engine_error(ws_file, base, seed):
    """Every field of a fixture or of a random workspace, retyped, dropped,
    renamed or duplicated, loads or fails as an ``EngineError``."""
    path = _write_mutation(ws_file, base[0], seed)
    try:
        parse_workspace(path)
    except EngineError:
        pass


# Each example runs five commands, so a quarter of the profile's examples
# keeps the default run cheap.
@given(st.sampled_from(BASES), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=settings.default.max_examples // 4, deadline=None)
def test_the_cli_on_a_mutated_workspace_exits_without_a_traceback(ws_file, base, seed):
    path = _write_mutation(ws_file, base[0], seed)
    _, rule, graph, square = base
    ws = ["--workspace", path]
    for argv in (["validate", *ws, "--graph", graph],
                 ["match", *ws, "--rule", rule, "--graph", graph],
                 ["apply", *ws, "--rule", rule, "--graph", graph],
                 ["check", *ws, "--square", square, "--exhaustive"],
                 ["normalize", *ws, "--rules", rule, "--graph", graph, "--max-steps", "3"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()


def test_a_rule_over_a_dangling_inline_pattern_exits_1(ws_file, capsys):
    """The mutation at seed 58711370 gives the random rule's inline pattern
    an edge with no source node.  The rule is reported invalid, and
    ``normalize`` refuses the workspace instead of crashing in the matcher."""
    path = _write_mutation(ws_file, None, 58711370)
    assert main(["validate", "--workspace", path, "--rule", "rule"]) == 1
    assert "dangling-endpoint: L: edge" in capsys.readouterr().out
    assert main(["normalize", "--workspace", path, "--rules", "rule", "--graph", "host",
                 "--max-steps", "3"]) == 1
    err = capsys.readouterr().err
    assert "dangling-endpoint: L: edge" in err and "Traceback" not in err
