"""Write BENCH_<n>.json: end-to-end and per-stage numbers of this checkout.

    python bench/write.py 2

Run it from anywhere; it measures the checkout that holds it, with the
interpreter that runs it, and writes BENCH_<n>.json at the checkout's
root.  It uses the standard library only, and it starts every measured
run in a fresh process, one at a time, REPEATS times each:

- sweep: `nilcent sweep --jobs 1` at each of SWEEP_MAX_N: wall seconds,
  peak RSS (RUSAGE_CHILDREN of a process that runs nothing else) and
  the sha256 of stdout;
- compositions: for each of COMPOSITIONS, the per-stage self seconds and
  counts of `python -m nilbench.child --workload sweep-n6 --lambda λ
  --trace`, and the wall seconds and peak RSS (RUSAGE_SELF) of a process
  that runs cli.sweep_composition(λ) alone, untraced.  The peak RSS that
  nilbench.child reports is not used: its output digests serialise every
  z_r, which on 1^8 doubles the peak, traced or not;
- symbol: the symbol determinant path, which the sweep runs only for
  N <= 5 and so no composition above reaches: for each of SYMBOL_QDET,
  the wall seconds, peak RSS and stdout sha256 of `nilcent qdet
  --lambda λ`, untraced, as for a sweep; and for SYMBOL_TRACED the
  per-stage self seconds and counts of `python -m nilbench.child
  --workload symbol-n6 --lambda λ --trace`;
- probe_s: the host-speed probe of nilbench.child, a fixed kernel of about
  a millisecond, timed just before every run and kept with that run, so
  that a run made in a slow period of the host shows.

Each measured number is given as the median over the runs with every
run listed beside it.  Times are measured seconds, not restated by the
probe.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SWEEP_MAX_N = (6, 7, 8)
COMPOSITIONS = ("1,1,1,1,1,1", "1,1,1,1,1,1,1", "1,1,1,1,1,1,1,1", "2,2,2",
                "1,1,2,2", "1,2,3", "3,4", "2,1,1,1,1")
SYMBOL_QDET = ("1,1,1,1,1,1,1", "1,1,1,1,1,1,1,1")
SYMBOL_TRACED = "1,1,1,1,1,1,1"
REPEATS = 5

# run in a process of its own, so that RUSAGE_CHILDREN holds this one command
COMMAND_RUN = """
import hashlib, json, resource, subprocess, sys, time
t0 = time.perf_counter()
out = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE,
                     stderr=subprocess.DEVNULL, check=True).stdout
wall = time.perf_counter() - t0
print(json.dumps({"wall_s": wall,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                  "sha256": hashlib.sha256(out).hexdigest()}))
"""

# one sweep unit, untraced, in a process of its own
UNIT_RUN = """
import json, resource, sys, time
from nilcent.cli import sweep_composition
from nilcent.composition import Composition
lam = Composition.from_string(sys.argv[1])
t0 = time.perf_counter()
sweep_composition(lam)
wall = time.perf_counter() - t0
print(json.dumps({"wall_s": wall,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def run_json(argv: list[str]) -> dict:
    """The JSON object on the last stdout line of argv, run at ROOT."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_s() -> float:
    """Median seconds of 25 runs of the nilbench host-speed probe."""
    return run_json([sys.executable, "-c",
                     "import json, statistics\n"
                     "from nilbench.child import timed_probe\n"
                     "print(json.dumps(statistics.median("
                     "timed_probe() for _ in range(25))))"])


def summary(runs: list[dict]) -> dict:
    """Medians of the numeric fields over the runs, and the runs."""
    out = {key: statistics.median(run[key] for run in runs)
           for key, value in runs[0].items()
           if isinstance(value, (int, float)) and not isinstance(value, bool)}
    out["runs"] = runs
    return out


def probed(argv: list[str], probes: list) -> dict:
    """run_json(argv), with the probe time taken just before it."""
    probes.append(probe_s())
    return {**run_json(argv), "probe_s": probes[-1]}


def command(args: list[str], probes: list) -> dict:
    """`nilcent *args`, REPEATS times: wall, peak RSS and stdout sha256."""
    runs = [probed([sys.executable, "-c", COMMAND_RUN, sys.executable, "-m",
                    "nilcent", *args], probes)
            for _ in range(REPEATS)]
    digests = {run["sha256"] for run in runs}
    if len(digests) != 1:
        raise RuntimeError(f"{' '.join(args)} printed {len(digests)} "
                           "different outputs")
    return {"sha256": digests.pop(), **summary(runs)}


def sweep(max_n: int, probes: list) -> dict:
    return command(["sweep", "--max-N", str(max_n), "--jobs", "1"], probes)


def stages(traced: list[dict]) -> dict:
    """Median per-stage self seconds and counts of traced child runs."""
    medians = summary(traced)
    del medians["runs"]
    return {"stages_s": {k: v for k, v in medians.items() if k.endswith("_s")},
            "counts": {k: v for k, v in medians.items()
                       if not k.endswith("_s")}}


def traced_child(workload: str, lam: str) -> dict:
    return run_json([sys.executable, "-m", "nilbench.child", "--workload",
                     workload, "--lambda", lam, "--trace"])["layers"]


def composition(lam: str, probes: list) -> dict:
    plain, traced = [], []
    for _ in range(REPEATS):
        plain.append(probed([sys.executable, "-c", UNIT_RUN, lam], probes))
        traced.append(traced_child("sweep-n6", lam))
    return {"untraced": summary(plain), **stages(traced)}


def symbol(probes: list) -> dict:
    qdet = {lam: command(["qdet", "--lambda", lam], probes)
            for lam in SYMBOL_QDET}
    traced = [traced_child("symbol-n6", SYMBOL_TRACED) for _ in range(REPEATS)]
    return {"qdet": qdet, "traced": {SYMBOL_TRACED: stages(traced)}}


def source_digest() -> str:
    """sha256 over the package's source files, in name order."""
    h = hashlib.sha256()
    for path in sorted((SRC / "nilcent").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: python bench/write.py N", file=sys.stderr)
        return 2
    started = time.time()
    probes: list = []
    bench = {
        "schema": 1,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "sweep": {str(n): sweep(n, probes) for n in SWEEP_MAX_N},
        "compositions": {lam: composition(lam, probes) for lam in COMPOSITIONS},
        "symbol": symbol(probes),
    }
    probes.append(probe_s())
    bench["probe_s"] = {"median": statistics.median(probes),
                        "min": min(probes), "max": max(probes),
                        "runs": probes}
    bench["written_in_s"] = time.time() - started
    path = ROOT / f"BENCH_{argv[0]}.json"
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name} in {bench['written_in_s']:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
