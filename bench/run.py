"""bezmin benchmark: three workloads through the real CLI entry point.

    python3 bench/run.py --workload {certify,solve-d8,solve-tight} \\
        --seed N --seconds S --trace {0,1}

Load comes from this one process in a closed loop: one client, each pair
starts when the previous one has ended, ``--workers 1``, and BLAS/OpenMP
threads pinned to 1. ``bezmin.cli.main`` is called in-process.

Workloads (why each exists: see BENCHMARK.json):

* ``certify``: ``bezmin --seed S_i certify --max-degree 5 --count 1`` with
  the CLI defaults, one call per pair; S_i = seed * 100000 + i. Calls whose
  one draw the ensemble rejects are not pairs.
* ``solve-d8``: ``bezmin --json solve A B --backend all`` then
  ``bezmin --json sylvester A B`` on degree 6..8 pairs with delta >= 0.05.
* ``solve-tight``: the same two commands on degree 1..5 pairs with one root
  of B 1e-4..1e-2 from a root of A. Not in BENCHMARK.json: about 2% of its
  pairs take quadrature to the maximum order at ~1.5 s each, over half of a
  run, so its throughput moves by 40% or more between seeds (BASELINE.md).
  Run it by hand for its per-layer table and failure counts.

Set-up, untimed: ``setup_s`` is the median time of fresh interpreters
running ``setup_probe.py``; then this process warms up the same way and
writes the solve pairs. Every time reported is rescaled by a reference
kernel timed next to it (``REF_S``); the ``report`` line adds the raw wall
figures. The timed loop runs pairs for ``--seconds`` of
measured time (at least ``MIN_PAIRS``); every output is checked after its
timing ends (``checks.py``). ``failed`` counts pairs that exited nonzero,
raised, failed a certify check or missed a pinned tolerance;
``pairs_per_s`` counts only the others. ``correct`` is false when an output
contradicts an independent recomputation of what it states.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the pairs
untraced for half the time, then the same pairs again with spans
(``spans.py``), and prints the per-layer table and the tracing slowdown.
Lines before the last describe the environment and the inputs; the last line
is the JSON result.
"""

from __future__ import annotations

import os

THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# before numpy is imported, here and in every child process
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import pairs
from setup_probe import warm_up
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("certify", "solve-d8", "solve-tight")
MIN_PAIRS = 100  # so the p90 has at least ten samples beyond it
SETUP_REPEATS = 3
# stop a run this long after its timed loop began, even short of MIN_PAIRS
MAX_LOOP_S = 120.0
POOL_CHUNK = 200
# This machine's speed drifts by tens of percent within seconds to minutes
# (BASELINE.md), so each timing is rescaled by a fixed reference kernel timed
# next to it: reported time = wall time * REF_S / kernel time. REF_S is a
# fixed constant close to the kernel's time on the baseline machine; the
# ``report`` line prints the raw wall figures and the speed factor.
REF_S = 2.0e-3
REF_LOOPS = 20_000
REF_NUMPY = 100
REF_WINDOW = 4  # kernel samples on each side whose median scales a pair


def reference() -> float:
    """Seconds taken by a fixed mix of interpreted complex arithmetic and
    small numpy calls, the two kinds of work bezmin does."""
    t0 = time.perf_counter()
    z, acc = 0.3 + 0.4j, 0j
    for _ in range(REF_LOOPS):
        acc = acc * z + 1.0
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(REF_NUMPY):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each time rescaled by the median kernel time around it."""
    out = []
    for i, t in enumerate(times):
        near = refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1]
        out.append(t * REF_S / statistics.median(near))
    return out


def load_program():
    """Import bezmin from this checkout's src/, never from elsewhere."""
    if not (SRC / "bezmin" / "cli.py").is_file():
        sys.exit(f"bench: no bezmin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bezmin
    from bezmin import cli

    if Path(bezmin.__file__).resolve().parent != SRC / "bezmin":
        sys.exit(f"bench: imported bezmin from {bezmin.__file__}, not {SRC}")
    return cli


def call(cli, argv: list[str]) -> tuple[object, str]:
    """One CLI invocation; (exit code or exception name, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an uncaught exception fails the pair
            rc = type(exc).__name__
    return rc, out.getvalue()


class Certify:
    def __init__(self, cli, seed: int, work: Path):
        self.cli, self.seed, self.work = cli, seed, work
        self.records: dict[int, list[dict]] = {}

    def prepare(self, n: int) -> None:
        pass

    def run(self, i: int):
        argv = ["--seed", str(self.seed * 100_000 + i), "--out", str(self.work),
                "certify", "--max-degree", "5", "--count", "1"]
        return call(self.cli, argv)

    def check(self, i: int, result, tol) -> checks.Outcome | None:
        """Outcome of the pair, or None when the ensemble rejected it."""
        rc, _ = result
        path = self.work / "certify_report.json"
        report = None
        if rc in (0, 1) and path.is_file():
            report = json.loads(path.read_text())
            path.unlink()
            if report["aggregates"]["rejections"] and not report["records"]:
                return None
        out = checks.Outcome()
        self.records[i] = checks.check_certify(rc, report, tol, out)
        return out

    def inputs(self, n: int) -> dict:
        recs = [r for i in range(n) for r in self.records.get(i, ())]
        props = pairs.input_properties(
            [d for r in recs for d in (r["deg_a"], r["deg_b"])],
            [r["delta"] for r in recs],
            [not r["simple_roots"] for r in recs],
        )
        rel = [r["tilde_upper"] / r["delta"] for r in recs]
        props["tilde_upper_rel"] = float(np.exp(np.mean(np.log(rel)))) if rel else None
        return props


class Solve:
    def __init__(self, cli, name: str, seed: int, work: Path):
        self.cli = cli
        self.pool = pairs.PairPool(name, seed, work / "pairs")

    def prepare(self, n: int) -> None:
        if n > len(self.pool.pairs):
            self.pool.ensure(n + POOL_CHUNK)

    def run(self, i: int):
        a, b = self.pool.paths[i]
        return (call(self.cli, ["--json", "solve", a, b, "--backend", "all"]),
                call(self.cli, ["--json", "sylvester", a, b]))

    def check(self, i: int, result, tol) -> checks.Outcome:
        ca, cb = self.pool.pairs[i]
        out = checks.Outcome()
        for (rc, text), check in zip(result, (checks.check_solve, checks.check_sylvester)):
            check(ca, cb, rc, json.loads(text) if rc == 0 else None, tol, out)
        return out

    def inputs(self, n: int) -> dict:
        used = self.pool.pairs[:n]
        return pairs.input_properties(
            [len(c) - 1 for pair in used for c in pair],
            [pairs.delta_of(ca, cb) for ca, cb in used],
            [pairs.suspect(ca) or pairs.suspect(cb) for ca, cb in used],
        )


def measure(workload, tol, seconds: float, min_pairs: int,
            limit: int | None = None, tracer: Tracer | None = None) -> dict:
    """Closed loop: run, time and check one pair after another.

    Runs ``limit`` attempts when given, otherwise until ``seconds`` of timed
    work and ``min_pairs`` pairs. Only ``workload.run`` is timed; the
    reference kernel runs just before it.
    """
    times, refs, kept, outcomes = [], [], [], []
    spent, began = 0.0, time.perf_counter()
    while True:
        attempts = len(times)
        if limit is not None:
            if attempts >= limit:
                break
        elif (spent >= seconds and len(outcomes) >= min_pairs) or (
            time.perf_counter() - began > MAX_LOOP_S
        ):
            break
        workload.prepare(attempts + 1)
        refs.append(reference())
        if tracer is not None:
            tracer.pair = attempts
            root = tracer.enter("cli")
        t0 = time.perf_counter()
        result = workload.run(attempts)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.exit(root)
        times.append(dt)
        spent += dt
        outcome = workload.check(attempts, result, tol)
        if outcome is not None:
            kept.append(attempts)
            outcomes.append(outcome)
    return {"times": times, "scaled": scaled(times, refs), "kept": kept,
            "outcomes": outcomes, "attempts": len(times), "seconds": spent,
            "speed": REF_S / statistics.median(refs) if refs else 1.0}


def setup_seconds(workload: str, work: Path) -> tuple[list[float], list[float]]:
    """Wall and rescaled seconds of each fresh-interpreter set-up probe."""
    wall, rescaled = [], []
    for i in range(SETUP_REPEATS):
        probe_dir = work / f"probe{i}"
        probe_dir.mkdir()
        refs = [reference() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(probe_dir)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120,
        )
        dt = time.perf_counter() - t0
        refs += [reference() for _ in range(3)]
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        wall.append(dt)
        rescaled.append(dt * REF_S / statistics.median(refs))
    return wall, rescaled


def tally(outcomes: list[checks.Outcome]) -> dict:
    agreements = [o.agreement for o in outcomes if o.agreement is not None]
    return {
        "failed": sum(bool(o.failures) for o in outcomes),
        "skipped": sum(o.skipped for o in outcomes),
        "agreement": max(agreements) if agreements else None,
    }


def end_to_end(run: dict, counts: dict, setup: list[float]) -> dict:
    n = len(run["outcomes"])
    good = n - counts["failed"]
    worst = counts["agreement"]
    ms = [run["scaled"][i] * 1e3 for i in run["kept"]]
    deciles = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pairs_per_s": (good / sum(run["scaled"]), "pairs/s"),
        "pair_ms_p50": (statistics.median(ms), "ms"),
        "pair_ms_p90": (deciles[8], "ms"),
        "ok_frac": (good / n, "fraction"),
        "analytic_frac": ((n - counts["skipped"]) / n, "fraction"),
        "agreement_digits": (
            -math.log10(max(worst, 1e-300)) if worst is not None else 0.0, "digits"
        ),
        "peak_rss_mb": (rss, "MB"),
    }


def wall_figures(run: dict, counts: dict, setup_wall: list[float]) -> dict:
    """The same timings, unscaled, plus the machine speed they were taken at."""
    ms = [run["times"][i] * 1e3 for i in run["kept"]]
    return {
        "wall_setup_s": statistics.median(setup_wall),
        "wall_pairs_per_s": (len(ms) - counts["failed"]) / run["seconds"],
        "wall_pair_ms_p50": statistics.median(ms),
        "speed_vs_reference": run["speed"],
    }


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_ENV},
        "clients": 1,
        "workers": 1,
        "machine": platform.machine(),
    }


def layer_table(layers: dict, pairs_n: int) -> list[str]:
    names = sorted(
        {k.rsplit(".", 1)[0] for k in layers if k.endswith(".self_us_per_pair")},
        key=lambda k: -layers[f"{k}.self_us_per_pair"],
    )
    total = sum(layers[f"{k}.self_us_per_pair"] for k in names) or 1.0
    lines = [f"per-layer, per pair over {pairs_n} pairs (self time = span minus children)",
             f"{'layer':<36} {'self us':>12} {'share':>7} {'calls':>10} {'errors':>8}"]
    for k in names:
        s = layers[f"{k}.self_us_per_pair"]
        calls = layers.get(f"{k}.calls_per_pair", 1.0)
        errors = layers.get(f"{k}.errors_per_pair", 0.0)
        lines.append(f"{k:<36} {s:>12.1f} {100 * s / total:>6.1f}% "
                     f"{calls:>10.2f} {errors:>8.3f}")
    layer_names = [k for k in names if k != "cli"]
    if layer_names:
        top = layer_names[0]
        lines.append(f"largest self time: {top} "
                     f"({100 * layers[f'{top}.self_us_per_pair'] / total:.1f}%)")
    for k in sorted(layers):
        if not k.endswith(("self_us_per_pair", "calls_per_pair", "errors_per_pair")) \
                or k.startswith("poly."):
            lines.append(f"{k:<52} {layers[k]:>14.2f}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    cli = load_program()
    tol = dict(cli.DEFAULT_TOLERANCES)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        setup_wall, setup = setup_seconds(args.workload, work)
        warm_up(args.workload, work)
        if args.workload == "certify":
            workload = Certify(cli, args.seed, work)
        else:
            workload = Solve(cli, args.workload, args.seed, work)
            workload.prepare(POOL_CHUNK)

        if args.trace:
            plain = measure(workload, tol, args.seconds / 2, 0)
            with Tracer() as tracer:
                run = measure(workload, tol, 0, 0, limit=plain["attempts"],
                              tracer=tracer)
        else:
            run = measure(workload, tol, args.seconds, MIN_PAIRS)
        outcomes = run["outcomes"]
        n = len(outcomes)
        if n == 0:
            sys.exit("bench: no pair completed")
        counts = tally(outcomes)
        if args.trace:
            # self times rescaled like every other timing
            layers = {k: v * run["speed"] if k.endswith("self_us_per_pair") else v
                      for k, v in tracer.layer_metrics(n).items()}
            slowdown = sum(run["scaled"]) / sum(plain["scaled"])
            metrics = {k: (v, "us" if k.endswith("self_us_per_pair") else "count")
                       for k, v in layers.items()}
            metrics["trace.slowdown"] = (slowdown, "ratio")
        else:
            metrics = end_to_end(run, counts, setup)

        false_claims = [c for o in outcomes for c in o.false_claims]
        print("environment " + json.dumps(environment(), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed}: {n} pairs in "
              f"{run['seconds']:.3f} s measured, set-up runs "
              f"{[round(s, 3) for s in setup]}")
        print("inputs " + json.dumps(workload.inputs(run["attempts"]), sort_keys=True))
        print("report " + json.dumps({
            "fail_frac": counts["failed"] / n,
            "skip_frac": counts["skipped"] / n,
            "agreement_log10_max": (
                math.log10(max(counts["agreement"], 1e-300))
                if counts["agreement"] is not None else None
            ),
            "failure_kinds": Counter(
                f.split(":")[0] for o in outcomes for f in o.failures
            ),
            "false_claims": false_claims[:5],
            **wall_figures(run, counts, setup_wall),
        }, sort_keys=True))
        if args.trace:
            for line in layer_table(layers, n):
                print(line)
            print(f"tracing slowdown {slowdown:.4f} (rescaled traced "
                  f"{sum(run['scaled']):.3f} s vs untraced {sum(plain['scaled']):.3f} s "
                  f"on the same {plain['attempts']} attempts); untraced pairs/s "
                  f"{len(plain['outcomes']) / sum(plain['scaled']):.4f}, traced "
                  f"{n / sum(run['scaled']):.4f}")
            print(f"wrapped bindings {json.dumps(tracer.bindings, sort_keys=True)}")
            print(f"missing layers {tracer.missing or 'none'}")
        else:
            for name, (value, unit) in metrics.items():
                print(f"{name:<20} {value:>14.6g} {unit}")
        print(json.dumps({
            "correct": not false_claims,
            "attempted": n,
            "failed": counts["failed"],
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }, sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
