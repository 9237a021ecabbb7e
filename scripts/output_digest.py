#!/usr/bin/env python3
"""One SHA-256 per command family over what `bezmin` prints and writes, so two
checkouts can be compared for byte-identical output.

    python scripts/output_digest.py N [--dump DIR]

With --dump, the bytes each family hashes are also written under DIR, one
file per case (DIR/FAMILY/CASE), for `scripts/output_drift.py` to compare
two checkouts whose digests differ.

Each run calls `bezmin.cli.main` in-process; its digest covers the exit code,
stdout and stderr, with the temporary directory replaced by a placeholder.
The families:

* solve-all, solve-reversed, solve-monomial, sylvester, delta, regions:
  `--json solve A B --backend all`, `--json solve A B --backend reversed`
  (the reversed backend alone, with no other backend run on the pair
  first), `--json solve A B --rhs monomial:1`, `--json sylvester A B`,
  `--json delta A B` and `--json regions A B --kind
  ea,eb,da,gamma1,inverted --svg FILE`, with the SVG file it writes, on the
  first N pairs of
  `bench/pairs.PairPool("solve-d8", 5)` and then of
  `PairPool("solve-tight", 5)`;
* certify: `--seed 1 certify --count 200 --max-degree 5`, with the report it
  writes, less its `seconds` and `total_seconds` fields;
* examples, figures: each in text and in `--json` mode, with the files it
  writes;
* arrangements: `regions.build_region` for all five region kinds on N
  synthetic root-set pairs of each shape in ARRANGEMENT_SHAPES, drawn with
  numpy alone (no root finder): each build's `to_json_dict()` and
  certificate, or its error type and message. After the digests the script
  prints how many of these builds succeeded and how many raised each error
  type, so a change in what a build refuses shows as numbers.

The script imports the `bezmin` of its own checkout (`src/`) and reads
`bench/pairs.py` without changing anything there. Like `bench/run.py`, it
pins the BLAS and OpenMP thread counts to 1 before numpy is imported, so the
digests do not depend on the shell they are run from.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import shutil
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

import numpy as np  # noqa: E402

from bezmin.cli import main  # noqa: E402
from bezmin.errors import BezminError  # noqa: E402
from bezmin.regions import RegionKind, build_region  # noqa: E402
from bezmin.roots import RootSet  # noqa: E402
from pairs import PairPool  # noqa: E402

REGION_KINDS = "ea,eb,da,gamma1,inverted"
# argv per family from the two pair files and a directory for what it writes
PAIR_FAMILIES = {
    "solve-all": lambda a, b, out: ["--json", "solve", a, b, "--backend", "all"],
    "solve-reversed": lambda a, b, out: [
        "--json", "solve", a, b, "--backend", "reversed"
    ],
    "solve-monomial": lambda a, b, out: [
        "--json", "solve", a, b, "--rhs", "monomial:1"
    ],
    "sylvester": lambda a, b, out: ["--json", "sylvester", a, b],
    "delta": lambda a, b, out: ["--json", "delta", a, b],
    "regions": lambda a, b, out: [
        "--json", "regions", a, b, "--kind", REGION_KINDS,
        "--svg", str(out / "regions.svg"),
    ],
}


ARRANGEMENT_SHAPES = ("random", "tight", "clustered", "scaled", "symmetric", "grid")
ARRANGEMENT_SEED = 20231


def _disk_points(rng: np.random.Generator, n: int, radius: float) -> list[complex]:
    pts = radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    return [complex(p) for p in pts]


def _arrangement(shape: str, rng: np.random.Generator):
    """The roots of A and of B, degrees 1..8, for one draw of a shape:
    independent roots in a disk; a tight pair (one root of B 1e-4..1e-2 from
    a root of A); one or two clusters of width 1e-3..1e-1; one of those three
    scaled by 1e-3..1e3; both sets on concentric regular polygons, which
    repeat circles; or distinct points of a grid offset by half a step from
    the origin, which tie distances and so meet tangencies."""
    na, nb = (int(d) for d in rng.integers(1, 9, size=2))
    if shape == "scaled":
        ra, rb = _arrangement(("random", "tight", "clustered")[rng.integers(3)], rng)
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        return [scale * z for z in ra], [scale * z for z in rb]
    if shape == "symmetric":
        turn = np.exp(2j * np.pi * np.arange(na) / na)
        rho_a, rho_b = rng.uniform(0.2, 1.5, size=2)
        phase = np.exp(1j * np.pi * rng.integers(0, 2) / na)
        return list(rho_a * turn), list(rho_b * phase * turn)
    if shape == "grid":
        cells = np.arange(-3, 3) + 0.5
        grid = (cells[:, None] + 1j * cells).ravel() * rng.uniform(0.1, 1.0)
        pick = rng.permutation(len(grid))[: na + nb]
        return list(grid[pick[:na]]), list(grid[pick[na:]])
    if shape == "clustered":
        hubs = _disk_points(rng, int(rng.integers(1, 3)), 1.5)
        width = 10.0 ** rng.uniform(-3.0, -1.0)
        return tuple(
            [hubs[int(rng.integers(len(hubs)))] + p for p in _disk_points(rng, n, width)]
            for n in (na, nb)
        )
    ra, rb = _disk_points(rng, na, 1.5), _disk_points(rng, nb, 1.5)
    if shape == "tight":
        dist = 10.0 ** rng.uniform(-4.0, -2.0)
        rb[0] = ra[int(rng.integers(na))] + dist * np.exp(2j * np.pi * rng.random())
    return ra, rb


def _root_set(roots) -> RootSet:
    roots = tuple(complex(r) for r in roots)
    return RootSet(
        roots=roots,
        residuals=(0.0,) * len(roots),
        multiplicity_suspect=(False,) * len(roots),
        cauchy_bound=1.0 + max(abs(r) for r in roots),
        verified=True,
    )


def _arrangement_cases(n_pairs: int, sink: "Sink") -> collections.Counter:
    """Feeds each synthetic pair's builds to the arrangements family, and
    counts the builds per outcome: "built" or the error type."""
    outcomes: collections.Counter[str] = collections.Counter()
    for i, shape in enumerate(ARRANGEMENT_SHAPES):
        rng = np.random.default_rng([ARRANGEMENT_SEED, i])
        for j in range(n_pairs):
            rootsA, rootsB = (_root_set(r) for r in _arrangement(shape, rng))
            parts = []
            for kind in RegionKind:
                try:
                    contour = build_region(kind, rootsA, rootsB)
                except (BezminError, ArithmeticError) as exc:
                    parts.append(f"{type(exc).__name__}: {exc}\0".encode())
                    outcomes[type(exc).__name__] += 1
                    continue
                parts.append(json.dumps(contour.to_json_dict()).encode())
                parts.append(
                    repr(list(contour.orientation_certificate.items())).encode()
                )
                parts.append(b"\0")
                outcomes["built"] += 1
            sink.add("arrangements", f"{shape}-{j:04d}", b"".join(parts))
    return outcomes


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


class Sink:
    """One SHA-256 per family; with a dump directory, each case's bytes are
    also written to DIR/FAMILY/CASE."""

    def __init__(self, dump: Path | None):
        self.hashes: dict[str, hashlib._Hash] = {}
        self.dump = dump

    def add(self, family: str, case: str, data: bytes) -> None:
        self.hashes.setdefault(family, hashlib.sha256()).update(data)
        if self.dump is not None:
            path = self.dump / family / case
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


def digests(
    n_pairs: int, tmp: Path, dump: Path | None = None
) -> tuple[dict[str, str], collections.Counter]:
    """The digest per family, and the arrangement builds per outcome."""
    sink = Sink(dump)
    written = tmp / "written"
    for workload in ("solve-d8", "solve-tight"):
        pool = PairPool(workload, 5, tmp / workload)
        pool.ensure(n_pairs)
        for i, (a, b) in enumerate(pool.paths[:n_pairs]):
            for name, argv in PAIR_FAMILIES.items():
                written.mkdir()
                data = _run(argv(a, b, written), tmp) + _files(written)
                sink.add(name, f"{workload}-{i:04d}", data)
                shutil.rmtree(written)

    out = tmp / "certify"
    data = _run(
        ["--seed", "1", "--out", str(out), "certify", "--count", "200",
         "--max-degree", "5"], tmp,
    )
    report = json.loads((out / "certify_report.json").read_text())
    del report["aggregates"]["total_seconds"]
    for record in report["records"]:
        del record["seconds"]
    sink.add("certify", "seed-1", data + json.dumps(report, sort_keys=True).encode())

    for command in ("examples", "figures"):
        for mode in ([], ["--json"]):
            out = tmp / command / ("json" if mode else "text")
            data = _run([*mode, "--out", str(out), command], tmp)
            data += _files(out) if out.exists() else b""
            sink.add(command, "json" if mode else "text", data)
    outcomes = _arrangement_cases(n_pairs, sink)
    return {name: h.hexdigest() for name, h in sink.hashes.items()}, outcomes


def main_digest() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pairs", type=int, help="pairs taken from each pool")
    ap.add_argument("--dump", type=Path, help="write each case's bytes here")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        hexdigests, outcomes = digests(args.pairs, Path(tmp), args.dump)
    for name, digest in hexdigests.items():
        print(f"{name:<15} {digest}")
    print(f"arrangements: {sum(outcomes.values())} builds")
    for outcome, count in outcomes.most_common():
        print(f"  {outcome:<22} {count}")


if __name__ == "__main__":
    main_digest()
