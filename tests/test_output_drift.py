"""scripts/output_drift.py on two tiny dumps in the layout that
scripts/output_digest.py --dump writes: DIR/FAMILY/CASE holding the exit
code, stdout and stderr, each ended by a NUL byte."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_drift.py"

STDOUT = {"R": {"coeffs": [[1.0, 0.0], [2.0, -4.0]]}, "residual": 1e-12, "ok": True}


def _drift_main(monkeypatch, a: Path, b: Path) -> int:
    spec = importlib.util.spec_from_file_location("output_drift", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["output_drift.py", str(a), str(b)])
    return module.main()


def _dump(root: Path, stdout: dict, code: int = 0) -> Path:
    case = root / "solve-all" / "solve-d8-0000"
    case.parent.mkdir(parents=True)
    case.write_bytes(f"{code}\0{json.dumps(stdout)}\0\0".encode())
    return root


def _report(capsys) -> tuple[list[list[str]], list[str]]:
    """The float-drift rows, split into fields, and the other-differences
    block (its count line first)."""
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("family"))
    other = next(i for i, line in enumerate(lines) if line.startswith("other differences"))
    return [line.split() for line in lines[header + 1:other] if line], lines[other:]


def test_identical_dumps_have_no_rows(tmp_path, monkeypatch, capsys):
    a = _dump(tmp_path / "a", STDOUT)
    b = _dump(tmp_path / "b", STDOUT)
    assert _drift_main(monkeypatch, a, b) == 0
    rows, other = _report(capsys)
    assert rows == []
    assert other == ["other differences: 0"]


def test_one_changed_float_is_one_row(tmp_path, monkeypatch, capsys):
    changed = json.loads(json.dumps(STDOUT))
    changed["R"]["coeffs"][1][0] = 2.5
    a = _dump(tmp_path / "a", STDOUT)
    b = _dump(tmp_path / "b", changed)
    assert _drift_main(monkeypatch, a, b) == 0
    rows, other = _report(capsys)
    # a coefficient moves against its vector's max-norm: 0.5 / 4
    assert rows == [["solve-all", "stdout/R/coeffs[][]", "1", "0.5", "0.125"]]
    assert other == ["other differences: 0"]


@pytest.mark.parametrize("what", ["exit code", "flag"])
def test_changed_exit_code_or_flag_is_another_difference(
    tmp_path, monkeypatch, capsys, what
):
    changed = dict(STDOUT, ok=False) if what == "flag" else STDOUT
    a = _dump(tmp_path / "a", STDOUT)
    b = _dump(tmp_path / "b", changed, code=1 if what == "exit code" else 0)
    assert _drift_main(monkeypatch, a, b) == 1
    rows, other = _report(capsys)
    assert rows == []
    assert other[0] == "other differences: 1"
    where = "exit code: '0' -> '1'" if what == "exit code" else "stdout/ok: True -> False"
    assert other[1:] == [f"solve-all/solve-d8-0000: {where}"]
