import json
import pathlib
import re
import subprocess
import sys

import pytest

from pbpoplus import LabeledGraph, find_matches, pbpo_step
from pbpoplus.cli import main
from pbpoplus.dot import emit_dot, trace_to_dot

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
WS = str(FIXTURES / "variable_replace.json")
SQ = str(FIXTURES / "squares.json")


# ------------------------------------------------ minimal DOT grammar


TOKEN_RE = re.compile(
    r'\s*(?:(?P<arrow>->)|(?P<string>"(?:[^"\\]|\\.)*")'
    r"|(?P<id>[A-Za-z0-9_.]+)|(?P<sym>[{}\[\];=,]))")


def tokenize_dot(text):
    pos = 0
    out = []
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        if not m:
            raise AssertionError(f"untokenizable DOT at {text[pos:pos+20]!r}")
        pos = m.end()
        kind = m.lastgroup
        out.append((kind, m.group(kind)))
        if pos == len(text) or text[pos:].isspace():
            break
    return out


def check_dot(text):
    """A statement-level check of the DOT digraph grammar."""
    tokens = tokenize_dot(text)
    i = 0

    def expect(kind, value=None):
        nonlocal i
        assert i < len(tokens), "unexpected end of DOT"
        k, v = tokens[i]
        assert k == kind and (value is None or v == value), (
            f"expected {kind} {value}, got {k} {v}")
        i += 1
        return v

    def name():
        nonlocal i
        k, v = tokens[i]
        assert k in ("string", "id"), f"expected a name, got {k} {v}"
        i += 1
        return v

    def attr_list():
        nonlocal i
        expect("sym", "[")
        while tokens[i] != ("sym", "]"):
            name()
            expect("sym", "=")
            name()
            if tokens[i] == ("sym", ","):
                i += 1
        expect("sym", "]")

    def stmt_list():
        nonlocal i
        while tokens[i] != ("sym", "}"):
            if tokens[i] == ("id", "subgraph"):
                i += 1
                name()
                expect("sym", "{")
                stmt_list()
                expect("sym", "}")
                continue
            first = name()
            if tokens[i] == ("sym", "="):
                i += 1
                name()
            elif tokens[i] == ("arrow", "->"):
                i += 1
                name()
                if tokens[i] == ("sym", "["):
                    attr_list()
            elif tokens[i] == ("sym", "["):
                attr_list()
            if tokens[i] == ("sym", ";"):
                i += 1

    expect("id", "digraph")
    name()
    expect("sym", "{")
    stmt_list()
    expect("sym", "}")
    assert i == len(tokens)


def test_dot_single_node(unit):
    g = LabeledGraph.build(unit, {"a": "*"})
    text = emit_dot(g)
    assert text.startswith("digraph")
    assert '"a"' in text
    check_dot(text)


def test_dot_zero_edges_dashed(pq_tree):
    text = emit_dot(pq_tree.graph, name="pq")
    check_dot(text)
    assert text.count("style=dashed") == 3  # the three 0-labeled tree edges
    assert len([ln for ln in text.splitlines() if "->" in ln]) == 6


def test_dot_trace_has_eight_clusters(replace_rule, lat2):
    host = LabeledGraph.build(lat2, {"g": "x2"})
    (match,) = find_matches(replace_rule, host)
    _, trace = pbpo_step(replace_rule, match)
    text = trace_to_dot(trace)
    check_dot(text)
    assert text.count("subgraph") == 8


# ------------------------------------------------------------ the CLI


def test_cli_bdd_reduce_golden_line(capsys):
    assert main(["bdd", "reduce", "--table", "0001", "--vars", "p,q"]) == 0
    out = capsys.readouterr().out
    assert out == "7 -> 4 nodes in 3 steps\n"


def test_cli_bdd_build_and_oracle(capsys, tmp_path):
    out_file = tmp_path / "tree.json"
    dot_file = tmp_path / "tree.dot"
    assert main(["bdd", "build", "--table", "0001", "--vars", "p,q",
                 "--output", str(out_file), "--dot", str(dot_file)]) == 0
    assert "7 nodes" in capsys.readouterr().out
    record = json.loads(out_file.read_text())
    assert len(record["nodes"]) == 7
    check_dot(dot_file.read_text())
    assert main(["bdd", "oracle", "--table", "0110", "--vars", "p,q"]) == 0
    assert "5 nodes" in capsys.readouterr().out


def test_cli_match_lists_one(capsys):
    assert main(["match", "--workspace", WS, "--rule", "replace",
                 "--graph", "host"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["matches"]) == 1
    assert payload["matches"][0]["m"]["nodeMap"] == {"a": "g"}


def test_cli_apply_and_trace(capsys):
    assert main(["apply", "--workspace", WS, "--rule", "replace",
                 "--graph", "host", "--match-index", "0"]) == 0
    graph_rec = json.loads(capsys.readouterr().out)
    assert graph_rec["nodes"][0]["label"] == "x1"
    assert main(["apply", "--workspace", WS, "--rule", "replace",
                 "--graph", "host", "--emit-trace"]) == 0
    trace_rec = json.loads(capsys.readouterr().out)
    assert trace_rec["gMid"]["nodes"][0]["label"] == "bot"


def test_cli_apply_out_of_range_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["apply", "--workspace", WS, "--rule", "replace",
              "--graph", "host", "--match-index", "5"])
    assert exc.value.code == 2


def test_cli_normalize(capsys):
    assert main(["normalize", "--workspace", WS, "--rules", "replace",
                 "--graph", "host", "--max-steps", "1"]) == 0
    out = capsys.readouterr().out
    assert "1 -> 1 nodes in 1 steps (step-limit-exceeded)" in out


def test_cli_normalize_negative_budget_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--workspace", WS, "--rules", "replace",
              "--graph", "host", "--max-steps", "-1"])
    assert exc.value.code == 2


def test_cli_check_squares(capsys, tmp_path):
    assert main(["check", "--workspace", SQ, "--square", "good"]) == 0
    assert "pushout: yes" in capsys.readouterr().out
    assert main(["check", "--workspace", SQ, "--square", "good",
                 "--exhaustive"]) == 0
    capsys.readouterr()
    assert main(["check", "--workspace", SQ, "--square", "bad"]) == 1
    assert "pushout: no" in capsys.readouterr().out
    # Legs that send the apex node to two corner nodes do not commute.
    ws = json.loads(pathlib.Path(SQ).read_text())
    ws["graphs"]["two"] = {"lattice": "unit", "nodes": [{"id": "m"}, {"id": "n"}], "edges": []}
    ws["morphisms"]["p2"] = {"dom": "left", "cod": "two", "nodeMap": {"g": "m"}, "edgeMap": {}}
    ws["morphisms"]["q2"] = {"dom": "right", "cod": "two", "nodeMap": {"r": "n"}, "edgeMap": {}}
    ws["squares"]["skew"] = {"kind": "pushout", "inner": ["f", "g"], "outer": ["p2", "q2"]}
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(ws))
    assert main(["check", "--workspace", str(path), "--square", "skew"]) == 1
    assert capsys.readouterr().out == "non-commuting\n"


def test_cli_validate(capsys):
    assert main(["validate", "--workspace", WS, "--lattice", "bdd2"]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["validate", "--workspace", WS, "--rule", "replace"]) == 0
    assert main(["validate", "--workspace", WS, "--graph", "host"]) == 0


def test_cli_dot_subcommand(capsys, tmp_path):
    assert main(["dot", "--workspace", WS, "--graph", "host"]) == 0
    text = capsys.readouterr().out
    check_dot(text)
    out = tmp_path / "host.dot"
    assert main(["dot", "--workspace", WS, "--graph", "host", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == text


def test_cli_missing_name_exit_1(capsys):
    assert main(["match", "--workspace", WS, "--rule", "nope",
                 "--graph", "host"]) == 1
    assert "dangling-reference" in capsys.readouterr().err
    assert main(["validate", "--workspace", WS, "--lattice", "nope"]) == 1
    assert "dangling-reference: lattice 'nope'" in capsys.readouterr().err


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["bdd"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--workspace", WS, "--rules", ",", "--graph", "host"])
    assert exc.value.code == 2


def test_cli_deterministic_output():
    cmd = [sys.executable, "-m", "pbpoplus", "bdd", "reduce",
           "--table", "0001", "--vars", "p,q"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout == "7 -> 4 nodes in 3 steps\n"


@pytest.mark.parametrize("mangle", [
    lambda g: {**g, "nodes": 7},
    lambda g: {**g, "nodes": [7, *g["nodes"]]},
    lambda g: {**g, "edges": "e"},
    lambda g: {**g, "edges": [["e", "a", "b"]]},
    lambda g: 7,
    lambda g: {**g, "nodes": [{"id": "a", "label": ["bot"]}]},
    lambda g: {**g, "edges": [{"id": "e", "src": "a", "tgt": "a", "label": ["bot"]}]},
    lambda g: {**g, "edges": [{"id": "e", "src": ["a"], "tgt": "a", "label": "bot"}]},
], ids=["nodes-number", "node-not-object", "edges-string", "edge-not-object", "graph-number",
        "node-label-list", "edge-label-list", "edge-src-list"])
def test_cli_malformed_graph_shape_is_a_parse_error(tmp_path, capsys, mangle):
    """A graph whose record, nodes or edges have the wrong shape is reported
    as a ``parse-error`` with exit 1, not as a traceback."""
    ws = json.loads(pathlib.Path(WS).read_text())
    ws["graphs"]["L"] = mangle(ws["graphs"]["L"])
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    assert main(["validate", "--workspace", str(path), "--graph", "L"]) == 1
    err = capsys.readouterr().err
    assert "parse-error" in err and "Traceback" not in err


@pytest.mark.parametrize("fixture, command, mangle", [
    (WS, ["match", "--rule", "replace", "--graph", "host"],
     lambda ws: ws["rules"]["replace"]["tL"].update(nodeMap=["a"])),
    (WS, ["match", "--rule", "replace", "--graph", "host"],
     lambda ws: ws["rules"]["replace"]["tL"].update(nodeMap={"a": 1})),
    (WS, ["match", "--rule", "replace", "--graph", "host"],
     lambda ws: ws["rules"]["replace"].pop("L")),
    (WS, ["validate", "--lattice", "bdd2"],
     lambda ws: ws.update(squares=["good"])),
    (SQ, ["check", "--square", "good"],
     lambda ws: ws["squares"]["good"].update(inner=["f", 1])),
    (WS, ["validate", "--lattice", "bdd2"],
     lambda ws: ws["lattices"]["bdd2"]["order"].append(["bot", "x1", "top"])),
    (WS, ["validate", "--rule", "replace"],
     lambda ws: ws["graphs"]["L"]["nodes"][0].update(label="weird")),
], ids=["nodemap-list", "nodemap-number", "rule-without-L", "squares-list",
        "square-inner-number", "order-triple", "rule-completion"])
def test_cli_malformed_record_shape_is_a_parse_error(tmp_path, capsys, fixture, command, mangle):
    """A lattice, morphism, rule or square record, or a workspace section,
    of the wrong shape is reported as a ``parse-error`` with exit 1."""
    ws = json.loads(pathlib.Path(fixture).read_text())
    mangle(ws)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    assert main([command[0], "--workspace", str(path), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert "parse-error" in err and "Traceback" not in err
    assert command != ["validate", "--rule", "replace"] or "morphism tL is invalid" in err


def test_cli_validate_reads_past_a_rule_that_fails_completion(tmp_path, capsys):
    """``validate`` reads its workspace unvalidated, so a reduced-form rule
    whose completion fails stops only what asks for that rule: a valid graph
    is ``ok`` and the bad pattern graph gets its own report.  Every command
    that validates its workspace still stops at the rule."""
    ws = json.loads(pathlib.Path(WS).read_text())
    ws["graphs"]["L"]["nodes"][0]["label"] = "weird"
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    assert main(["validate", "--workspace", str(path), "--graph", "host"]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert main(["validate", "--workspace", str(path), "--graph", "L"]) == 1
    assert (capsys.readouterr().out
            == "label-domain: node 'a' labeled 'weird' outside the lattice\n")
    for command in (["validate", "--rule", "replace"],
                    ["match", "--rule", "replace", "--graph", "host"],
                    ["dot", "--graph", "host"]):
        assert main([command[0], "--workspace", str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse-error: rules.replace: invalid-rule: morphism tL is invalid")
