#!/usr/bin/env python3
"""How far the outputs of two checkouts drift apart, case by case.

    python scripts/output_digest.py N --dump DIR_A     # in checkout A
    python scripts/output_digest.py N --dump DIR_B     # in checkout B
    python scripts/output_drift.py DIR_A DIR_B

A digest only says whether outputs are byte-identical. When a change moves
results in their last bits, this script says by how much. Each dumped case
is split into its parts: exit code, stdout, stderr and each written file
for the command families (the certify report for certify), and each build
for the arrangements family. JSON parts are compared leaf by leaf, and
other text (SVG, text-mode output) number by number, once the text between
the numbers is found equal.

It prints one row per family and JSON path, with list indices written as
[], for the paths where a float changed: the number of cases where it
changed, the largest absolute change and the largest relative change. A
float inside a list of numbers only, such as a coefficient vector or a
matrix, is measured against the largest modulus in the outermost such list
(the vector's max-norm); any other float against its own size. Then it lists
every other difference, one line each: an exit code, a string, a flag, an
integer, a key or a list length that differs, a part or case that exists on
one side only, or text that differs outside its numbers. The exit status is
1 when there is such a line, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections import defaultdict
from pathlib import Path

NUMBER = re.compile(rb"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def parts(family: str, data: bytes) -> dict[str, bytes]:
    """A dumped case by part, in the layout scripts/output_digest.py hashes."""
    fields = data.split(b"\0")
    if family == "arrangements":
        return {f"build{k}": f for k, f in enumerate(fields[:-1])}
    out = {"exit": fields[0], "stdout": fields[1], "stderr": fields[2]}
    rest = fields[3:]
    if family == "certify":
        out["report"] = rest[0]
    else:
        for name, content in zip(rest[0:-1:2], rest[1::2]):
            out[f"file:{name.decode()}"] = content
    return out


def _numbers_only(x) -> bool:
    if isinstance(x, list):
        return all(_numbers_only(v) for v in x)
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _max_modulus(x) -> float:
    if isinstance(x, list):
        return max((_max_modulus(v) for v in x), default=0.0)
    return abs(x)


class Drift:
    def __init__(self):
        # (family, path) -> [cases changed, max abs, max rel]
        self.rows: dict[tuple[str, str], list] = defaultdict(lambda: [set(), 0.0, 0.0])
        self.differences: list[str] = []

    def number(self, family, case, path, a, b, scale) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        change = abs(a - b)
        scale = scale if scale is not None else max(abs(a), abs(b))
        rel = change / scale if scale > 0 else math.inf
        row = self.rows[family, path]
        row[0].add(case)
        row[1] = max(row[1], change) if not math.isnan(change) else math.inf
        row[2] = max(row[2], rel) if not math.isnan(rel) else math.inf

    def differ(self, family, case, where, a, b) -> None:
        self.differences.append(f"{family}/{case}: {where}: {a!r} -> {b!r}")

    def json(self, family, case, exact, path, a, b, scale=None) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b), key=str):
                if key not in a or key not in b:
                    self.differ(family, case, f"{exact}/{key}",
                                a.get(key, "<absent>"), b.get(key, "<absent>"))
                else:
                    self.json(family, case, f"{exact}/{key}", f"{path}/{key}",
                              a[key], b[key], scale)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.differ(family, case, f"{exact} length", len(a), len(b))
                return
            if scale is None and _numbers_only(a) and _numbers_only(b):
                scale = max(_max_modulus(a), _max_modulus(b))
            for k, (x, y) in enumerate(zip(a, b)):
                self.json(family, case, f"{exact}[{k}]", f"{path}[]", x, y, scale)
        elif isinstance(a, float) and isinstance(b, float):
            self.number(family, case, path, a, b, scale)
        elif type(a) is not type(b) or a != b:
            self.differ(family, case, exact, a, b)

    def text(self, family, case, name, a: bytes, b: bytes) -> None:
        if NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b):
            la, lb = a.splitlines(), b.splitlines()
            k = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y),
                     min(len(la), len(lb)))
            self.differ(family, case, f"{name} line {k + 1}",
                        la[k].decode() if k < len(la) else "<end>",
                        lb[k].decode() if k < len(lb) else "<end>")
            return
        for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
            if x != y:
                self.number(family, case, f"{name} (text)", float(x), float(y), None)

    def case(self, family, case, data_a: bytes, data_b: bytes) -> None:
        pa, pb = parts(family, data_a), parts(family, data_b)
        for name in sorted(set(pa) | set(pb)):
            if name not in pa or name not in pb:
                self.differ(family, case, name, name in pa, name in pb)
            elif name == "exit":
                if pa[name] != pb[name]:
                    self.differ(family, case, "exit code",
                                pa[name].decode(), pb[name].decode())
            elif pa[name] != pb[name]:
                try:
                    ja, jb = json.loads(pa[name]), json.loads(pb[name])
                except ValueError:
                    self.text(family, case, name, pa[name], pb[name])
                else:
                    self.json(family, case, name, name, ja, jb)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args()
    drift = Drift()
    families = sorted(
        {p.name for d in (args.dir_a, args.dir_b) for p in d.iterdir() if p.is_dir()}
    )
    for family in families:
        fa, fb = args.dir_a / family, args.dir_b / family
        cases_a = {p.name for p in fa.iterdir()} if fa.is_dir() else set()
        cases_b = {p.name for p in fb.iterdir()} if fb.is_dir() else set()
        for case in sorted(cases_a | cases_b):
            if case not in cases_a or case not in cases_b:
                drift.differ(family, case, "case", case in cases_a, case in cases_b)
                continue
            drift.case(family, case, (fa / case).read_bytes(), (fb / case).read_bytes())
        changed = sum(1 for (f, _), row in drift.rows.items() if f == family)
        print(f"{family}: {len(cases_a | cases_b)} cases, "
              f"{changed} paths with float changes")

    print(f"\n{'family':<15} {'path':<52} {'cases':>5} {'max abs':>10} {'max rel':>10}")
    for (family, path), (cases, change, rel) in sorted(drift.rows.items()):
        print(f"{family:<15} {path:<52} {len(cases):>5} {change:>10.3g} {rel:>10.3g}")
    print(f"\nother differences: {len(drift.differences)}")
    for line in drift.differences:
        print(line)
    return 1 if drift.differences else 0


if __name__ == "__main__":
    sys.exit(main())
