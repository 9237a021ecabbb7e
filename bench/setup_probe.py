"""Set-up of one bezmin process, as the benchmark times it.

Run as ``python3 bench/setup_probe.py WORKLOAD WORKDIR``: a fresh interpreter
imports ``bezmin.cli``, loads the ceilings table and runs one fixed warm-up
pair of the workload. ``run.py`` times this whole process several times for
``setup_s`` and calls ``warm_up`` itself before its timed loop.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def warm_up(workload: str, work: Path) -> None:
    """Import lazily imported modules, fill the ceilings cache and run one
    fixed pair of ``workload`` through the CLI. Exit codes are not checked
    here; the timed loop checks every pair it runs."""
    from bezmin import ceilings, cli

    ceilings.lookup_ceiling(1, 1)
    if workload == "certify":
        # seed 0 yields one accepted degree (5, 5) pair
        calls = [["--seed", "0", "--out", str(work), "certify",
                  "--max-degree", "5", "--count", "1"]]
    else:
        from pairs import PairPool

        pool = PairPool(workload, 0, work / "warmup")
        pool.ensure(1)
        a, b = pool.paths[0]
        calls = [["--json", "solve", a, b, "--backend", "all"],
                 ["--json", "sylvester", a, b]]
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    warm_up(sys.argv[1], Path(sys.argv[2]))
