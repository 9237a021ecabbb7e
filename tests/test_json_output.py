"""The JSON contract of the CLI: every document a command prints or writes
is one line of json.dumps(obj, sort_keys=True), and it has one writer."""

import ast
import json
from pathlib import Path

import pytest

from bezmin.cli import main
from bezmin.poly import Polynomial

SRC = Path(__file__).resolve().parent.parent / "src" / "bezmin"

# command -> its arguments after --json, given the two polynomial files and
# the --out directory
COMMANDS = {
    "roots": lambda a, b, tmp: ["roots", a],
    "delta": lambda a, b, tmp: ["delta", a, b],
    "solve": lambda a, b, tmp: ["solve", a, b, "--backend", "all"],
    "regions": lambda a, b, tmp: [
        "regions", a, b, "--kind", "ea,eb,gamma1",
        "--arcs-json", str(tmp / "arcs.json"),
    ],
    "sylvester": lambda a, b, tmp: ["sylvester", a, b],
    "examples": lambda a, b, tmp: ["examples"],
    "figures": lambda a, b, tmp: ["figures"],
    "certify": lambda a, b, tmp: [
        "certify", "--count", "4", "--max-degree", "3",
    ],
}

# the files that hold the same document as stdout
COPIES = {"regions": "arcs.json", "figures": "out/figures.json"}


@pytest.mark.parametrize("command", COMMANDS)
def test_json_output_is_one_sorted_line(tmp_path, capsys, command):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(Polynomial.from_roots([0.5, -0.4 + 0.3j]).to_json_dict()))
    b.write_text(json.dumps(Polynomial.from_roots([1.2j, -1.0, 0.9]).to_json_dict()))
    argv = COMMANDS[command](str(a), str(b), tmp_path)
    assert main(["--json", "--out", str(tmp_path / "out"), *argv]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    line = out.rstrip("\n")
    assert json.dumps(json.loads(line), sort_keys=True) == line
    if command in COPIES:
        assert (tmp_path / COPIES[command]).read_text() == line
    if command == "certify":
        report = json.loads((tmp_path / "out" / "certify_report.json").read_text())
        assert report["aggregates"] == json.loads(line)


class _JsonCalls(ast.NodeVisitor):
    """Each json.dump or json.dumps call, each indent= keyword and each import
    from the json package, with the function it sits in."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ImportFrom(self, node):
        if (node.module or "").split(".")[0] == "json":
            self.found.append((f"from {node.module} import", ".".join(self.scope)))

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps")
                and isinstance(func.value, ast.Name) and func.value.id == "json"):
            self.found.append((f"json.{func.attr}", ".".join(self.scope)))
        if any(k.arg == "indent" for k in node.keywords):
            self.found.append(("indent=", ".".join(self.scope)))
        self.generic_visit(node)


def test_src_writes_json_in_one_place():
    # json.dump, and json.dumps with indent set, run the pure-Python encoder
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _JsonCalls(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    assert found == [("json.dumps", "cli._json_text")]
