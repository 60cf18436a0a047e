"""Record the reference outputs and the per-layer baseline.

    python3 -m nilbench.record

Run from the root of a checkout. For every workload it runs one untraced
pass with seed SEED and writes each unit's output digest and check count
to nilbench/expected.json, refusing if any check fails. It then runs
PAIRS untraced/traced pass pairs and writes to nilbench/baseline.json
each span's share of the traced wall time, the tracing overhead, and the
predicted map from layer metrics to the end-to-end metrics they move.
"""

from __future__ import annotations

import json
import os
import platform
import sys

from nilbench.run import ROOT, run_child, summarize

sys.path.insert(0, os.path.join(ROOT, "src"))
from nilbench.workloads import WORKLOADS  # noqa: E402  (needs src on the path)

BASELINE_PATH = os.path.join(ROOT, "nilbench", "baseline.json")
EXPECTED_PATH = os.path.join(ROOT, "nilbench", "expected.json")
SEED = 0
PAIRS = 3

# which end-to-end metric each layer metric should move, and on which
# workloads; "barely" lists the workloads where it should not move
LAYER_MAP = [
    {"layer": ["centralizer.structure_constants_s",
               "centralizer.verify_centralizer_s", "linalg.rational_rank_s",
               "centralizer.basis_dim", "centralizer.bracket_entries"],
     "moves": ["wall_s"], "on": ["wide-n10", "sweep-n6", "engine-n7"],
     "barely": ["symbol-n6"]},
    {"layer": ["enveloping.pbw_algebra_s", "enveloping.central_element_s",
               "enveloping.verify_central_s", "enveloping.z_terms",
               "enveloping.generator_checks", "enveloping.nf_memo_entries",
               "enveloping.rss_growth_mb"],
     "moves": ["wall_s", "max_unit_s", "peak_rss_mb"],
     "on": ["engine-n7", "sweep-n6"], "barely": ["symbol-n6", "wide-n10"]},
    {"layer": ["invariants.elementary_invariant_s", "invariants.top_symbol_s",
               "invariants.verify_invariant_s", "slice.restrict_s",
               "slice.jacobian_s", "invariants.x_monomials",
               "composition.mu_count"],
     "moves": ["wall_s"], "on": ["sweep-n6"], "barely": []},
    {"layer": ["freealg.z_polynomial_s", "freealg.expansion_identity_s",
               "freealg.graded_image_s", "freealg.z_words",
               "freealg.rss_growth_mb"],
     "moves": ["wall_s", "max_unit_s"], "on": ["symbol-n6"], "barely": []},
    {"layer": ["cli.sweep_self_s"],
     "moves": ["wall_s"], "on": ["sweep-n6", "wide-n10"], "barely": []},
]


def main() -> int:
    expected = {}
    for workload in WORKLOADS:
        result = run_child(workload, SEED, False)
        units = result.get("units")
        bad = [u["lambda"] for u in units or ()
               if "error" in u or u["passed"] != u["checks"]]
        if units is None or bad:
            print(f"error: {workload}: {result.get('error') or bad}",
                  file=sys.stderr)
            return 1
        expected[workload] = {u["lambda"]: {"digest": u["digest"],
                                            "checks": u["checks"]}
                              for u in sorted(units, key=lambda u: u["lambda"])}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")

    workloads = {}
    for workload in WORKLOADS:
        passes = [(trace, run_child(workload, SEED, trace))
                  for _ in range(PAIRS) for trace in (False, True)]
        result, _ = summarize(passes, expected[workload], trace=True)
        if not result["correct"]:
            print(f"error: {workload}: outputs differ from the record",
                  file=sys.stderr)
            return 1
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        wall = metrics["trace.wall_s"]
        workloads[workload] = {
            "traced_wall_s": round(wall, 3),
            "overhead_ratio": round(metrics["trace.overhead_ratio"], 3),
            "accounted_share": round(metrics["trace.accounted_share"], 3),
            "self_share": {k: round(v / wall, 3) for k, v in metrics.items()
                           if k.endswith("_s") and not k.startswith("trace.")},
        }
    baseline = {
        "host": f"{platform.python_implementation()} {platform.python_version()}, "
                f"{os.cpu_count()} cores, {platform.machine()}",
        "seed": SEED,
        "pairs": PAIRS,
        "workloads": workloads,
        "layer_map": LAYER_MAP,
    }
    with open(BASELINE_PATH, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
