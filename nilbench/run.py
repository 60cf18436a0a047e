"""Benchmark entry point.

    python3 nilbench/run.py --workload sweep-n6 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds src/nilcent. The run is a closed
loop with one client: it starts one fresh child process per pass, one at a
time, until --seconds are used up. Every pass starts cold, like a CLI call,
and runs every unit of the workload in the order the seed gives.

With --trace 0 it reports the end-to-end metrics, as medians over the
passes. With --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, with the tracing
overhead. In both modes every unit's output digest is compared with
nilbench/expected.json; a unit that raises or whose digest differs counts
all its checks as failed.

Earlier stdout lines carry details (every pass, the host-noise probe); the
last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED_PATH = os.path.join(ROOT, "nilbench", "expected.json")
# a pass takes a few seconds; a run of 30 s plus one hung pass still ends
# within three minutes
CHILD_TIMEOUT_S = 120


def run_child(workload: str, seed: int, trace: bool) -> dict:
    """One pass in a fresh process; a crashed pass comes back as an error."""
    t0 = time.perf_counter()
    cmd = [sys.executable, "-m", "nilbench.child", "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {CHILD_TIMEOUT_S} s",
                "elapsed_s": time.perf_counter() - t0}
    elapsed = time.perf_counter() - t0
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"pass exited with code {proc.returncode}",
                "elapsed_s": elapsed}
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def score_pass(result: dict, expected: dict) -> tuple[int, int]:
    """(passed, attempted) checks of one pass against the recorded outputs.

    Attempted counts come from the record, so a unit that raised, is
    missing, or whose digest differs counts every check as failed.
    """
    got = {u["lambda"]: u for u in result.get("units", ())}
    passed = attempted = 0
    for lam, want in expected.items():
        attempted += want["checks"]
        unit = got.get(lam)
        if unit and "error" not in unit and unit["digest"] == want["digest"]:
            passed += unit["passed"]
    return passed, attempted


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Passes until the time is used; with trace, untraced/traced pairs."""
    modes = (False, True) if trace else (False,)
    start = time.perf_counter()
    passes: list[tuple[bool, dict]] = []
    while True:
        for mode in modes:
            passes.append((mode, run_child(workload, seed, mode)))
        if any("error" in p and "units" not in p for _, p in passes):
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["elapsed_s"] for _, p in passes)
        if elapsed + typical * len(modes) > seconds:
            break
    return passes


def _median(values, pick=statistics.median):
    values = [v for v in values if v is not None]
    return pick(values) if values else None


def slowest_unit(passes) -> float | None:
    """The largest, over units, of a unit's median seconds over the passes.

    A unit that one pass ran in a slow moment of the host does not become
    the straggler; a unit that is slow in most passes does.
    """
    seconds: dict[str, list[float]] = {}
    for p in passes:
        for unit in p["units"]:
            seconds.setdefault(unit["lambda"], []).append(unit["ref_seconds"])
    return max((statistics.median(v) for v in seconds.values()), default=None)


def summarize(passes, expected: dict, trace: bool) -> tuple[dict, dict]:
    """The result object and the detail object of a run."""
    passed = attempted = 0
    for _, p in passes:
        ok, n = score_pass(p, expected)
        passed += ok
        attempted += n
    timed = [(mode, p) for mode, p in passes if "units" in p]
    plain = [p for mode, p in timed if not mode]
    traced = [p for mode, p in timed if mode]
    if trace:
        # counts repeat exactly from pass to pass; median_low keeps them whole
        metrics = {name: _median((p["layers"][name] for p in traced),
                                 statistics.median_low if _unit(name) == "count"
                                 else statistics.median)
                   for name in (traced[0]["layers"] if traced else ())}
        wall = _median(p["wall_s"] for p in traced)
        metrics["trace.wall_s"] = wall
        metrics["trace.overhead_ratio"] = (
            wall / _median(p["wall_s"] for p in plain) if traced and plain else None)
    else:
        metrics = {name: _median(p[name] for p in plain)
                   for name in ("setup_s", "wall_s", "peak_rss_mb")}
        metrics["max_unit_s"] = slowest_unit(plain)
        metrics["check_pass_ratio"] = passed / attempted if attempted else 0.0
    result = {
        "correct": attempted > 0 and passed == attempted,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }
    detail = {
        "passes": [{"traced": mode, "wall_s": p.get("wall_s"),
                    "measured": p.get("measured"), "probe_s": p.get("probe_s"),
                    "error": p.get("error")} for mode, p in passes],
        "host_probe_s": {k: _median(p["probe_s"][k] for _, p in timed)
                         for k in ("before", "during", "after")},
        "measured": {k: _median(p["measured"][k] for _, p in timed)
                     for k in ("setup_s", "wall_s", "max_unit_s")},
        "errors": sorted({f"{u['lambda']}: {u['error']}" for _, p in timed
                          for u in p["units"] if "error" in u}),
    }
    return result, detail


def _unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nilcent", "__init__.py")):
        print(f"error: no src/nilcent under {ROOT}; run from a nilcent checkout",
              file=sys.stderr)
        return 2
    with open(EXPECTED_PATH) as fh:
        expected_all = json.load(fh)
    if args.workload not in expected_all:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    passes = run_passes(args.workload, args.seed, args.seconds, trace)
    result, detail = summarize(passes, expected_all[args.workload], trace)
    if any(m["value"] is None for name, m in result["metrics"].items()
           if name != "enveloping.nf_memo_entries"):
        print(json.dumps({"detail": detail}), file=sys.stderr)
        print("error: no pass finished, so there is nothing to report",
              file=sys.stderr)
        return 1
    detail.update(workload=args.workload, seed=args.seed)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
