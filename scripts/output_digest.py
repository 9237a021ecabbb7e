#!/usr/bin/env python3
"""One SHA-256 per command family over what `bezmin` prints and writes, so two
checkouts can be compared for byte-identical output.

    python scripts/output_digest.py N

Each run calls `bezmin.cli.main` in-process; its digest covers the exit code,
stdout and stderr, with the temporary directory replaced by a placeholder.
The families:

* solve-all, solve-monomial, sylvester, regions: `--json solve A B --backend
  all`, `--json solve A B --rhs monomial:1`, `--json sylvester A B` and
  `--json regions A B --kind ea,eb,da,gamma1,inverted` on the first N pairs
  of `bench/pairs.PairPool("solve-d8", 5)` and then of
  `PairPool("solve-tight", 5)`;
* certify: `--seed 1 certify --count 200 --max-degree 5`, with the report it
  writes, less its `seconds` and `total_seconds` fields;
* examples, figures: each in text and in `--json` mode, with the files it
  writes.

The script imports the `bezmin` of its own checkout (`src/`) and reads
`bench/pairs.py` without changing anything there. Like `bench/run.py`, it
pins the BLAS and OpenMP thread counts to 1 before numpy is imported, so the
digests do not depend on the shell they are run from.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

from bezmin.cli import main  # noqa: E402
from pairs import PairPool  # noqa: E402

REGION_KINDS = "ea,eb,da,gamma1,inverted"
PAIR_FAMILIES = {
    "solve-all": lambda a, b: ["--json", "solve", a, b, "--backend", "all"],
    "solve-monomial": lambda a, b: ["--json", "solve", a, b, "--rhs", "monomial:1"],
    "sylvester": lambda a, b: ["--json", "sylvester", a, b],
    "regions": lambda a, b: ["--json", "regions", a, b, "--kind", REGION_KINDS],
}


def _run(argv: list[str], tmp: Path) -> bytes:
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}\0"
    return text.replace(str(tmp), "<tmp>").encode()


def _files(directory: Path) -> bytes:
    """Names and contents of the files under a directory, in name order."""
    parts = []
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        parts.append(str(path.relative_to(directory)).encode() + b"\0")
        parts.append(path.read_bytes() + b"\0")
    return b"".join(parts)


def digests(n_pairs: int, tmp: Path) -> dict[str, str]:
    hashes = {name: hashlib.sha256() for name in PAIR_FAMILIES}
    for workload in ("solve-d8", "solve-tight"):
        pool = PairPool(workload, 5, tmp / workload)
        pool.ensure(n_pairs)
        for a, b in pool.paths[:n_pairs]:
            for name, argv in PAIR_FAMILIES.items():
                hashes[name].update(_run(argv(a, b), tmp))

    out = tmp / "certify"
    h = hashlib.sha256(_run(
        ["--seed", "1", "--out", str(out), "certify", "--count", "200",
         "--max-degree", "5"], tmp,
    ))
    report = json.loads((out / "certify_report.json").read_text())
    del report["aggregates"]["total_seconds"]
    for record in report["records"]:
        del record["seconds"]
    h.update(json.dumps(report, sort_keys=True).encode())
    hashes["certify"] = h

    for command in ("examples", "figures"):
        h = hashlib.sha256()
        for mode in ([], ["--json"]):
            out = tmp / command / ("json" if mode else "text")
            h.update(_run([*mode, "--out", str(out), command], tmp))
            h.update(_files(out) if out.exists() else b"")
        hashes[command] = h
    return {name: h.hexdigest() for name, h in hashes.items()}


def main_digest() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pairs", type=int, help="pairs taken from each pool")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in digests(args.pairs, Path(tmp)).items():
            print(f"{name:<15} {digest}")


if __name__ == "__main__":
    main_digest()
