"""Tests of the benchmark's own code: names, unit order, tracing, scoring."""

import json
import os
import re
import sys

import pytest

from nilbench import run, workloads
from nilbench.tracing import SPANS, Tracer
from nilcent import cli
from nilcent.composition import Composition

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
with open(run.EXPECTED_PATH) as fh:
    EXPECTED = json.load(fh)


def lams(*texts):
    return [Composition.from_string(t) for t in texts]


def clear_caches():
    """Empty every lru_cache of nilcent, so the next pass starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "nilcent" or name.startswith("nilcent."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))


def test_workloads_agree_everywhere():
    named = {w["name"] for w in BENCHMARK["workloads"]}
    assert named == set(workloads.WORKLOADS) == set(EXPECTED)


def test_reported_metrics_match_the_declared_ones():
    unit = {"lambda": "1,2", "seconds": 0.5, "ref_seconds": 0.5,
            "digest": EXPECTED["sweep-n6"]["1,2"]["digest"],
            "checks": EXPECTED["sweep-n6"]["1,2"]["checks"],
            "passed": EXPECTED["sweep-n6"]["1,2"]["checks"]}
    layers = {f"{span}_s": 0.1 for _, _, span, _, _ in SPANS}
    layers.update(Tracer().metrics(), **{"trace.accounted_share": 1.0})
    times = {"setup_s": 0.1, "wall_s": 0.5}
    plain = dict(times, units=[unit], peak_rss_mb=20.0,
                 measured=dict(times, max_unit_s=0.5),
                 probe_s={"before": 1e-3, "during": 1e-3, "after": 1e-3},
                 layers=None)
    traced = dict(plain, layers=layers)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.summarize([(False, plain), (True, traced)],
                                  {"1,2": EXPECTED["sweep-n6"]["1,2"]}, trace)
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        reported = {k: m["unit"] for k, m in result["metrics"].items()}
        assert reported == declared
        assert result["correct"]


def test_unit_order_is_fixed_by_the_seed():
    for name in workloads.WORKLOADS:
        first = workloads.units(name, 7)
        assert first == workloads.units(name, 7)
        assert first != workloads.units(name, 8)
        assert sorted(first, key=str) == sorted(workloads.units(name, 8), key=str)


@pytest.mark.parametrize("workload, texts", [
    ("sweep-n6", ("1,2", "2,1", "1,1,1")),
    ("engine-n7", ("1,1,2", "2,2")),
    ("symbol-n6", ("1,2", "1,1,1")),
])
def test_traced_and_untraced_passes_agree(workload, texts):
    original = cli.sweep_composition
    clear_caches()
    with Tracer() as tracer:
        traced = workloads.run_pass(workload, lams(*texts), 0, tracer)
    assert cli.sweep_composition is original
    clear_caches()
    plain = workloads.run_pass(workload, lams(*texts), 0)

    def outputs(units):
        return [{k: v for k, v in u.items() if k not in ("t0", "seconds")}
                for u in units]

    assert outputs(plain) == outputs(traced)
    assert all(u["passed"] == u["checks"] and "error" not in u for u in plain)
    for unit in plain:
        want = EXPECTED[workload].get(unit["lambda"])
        if want is not None:
            assert unit["digest"] == want["digest"]
    spans = sum(v for k, v in tracer.metrics().items() if k.endswith("_s"))
    assert 0 < spans <= sum(u["seconds"] for u in traced)


def test_a_unit_that_raises_counts_as_failed(monkeypatch):
    def boom(lam, seed):
        raise RuntimeError("boom")

    spec = workloads.WORKLOADS["sweep-n6"]
    monkeypatch.setitem(workloads.WORKLOADS, "sweep-n6",
                        workloads.Workload(spec.select, boom, spec.material))
    units = workloads.run_pass("sweep-n6", lams("1,2", "1,1"), 0)
    assert [("error" in u) for u in units] == [True, True]
    expected = {k: EXPECTED["sweep-n6"][k] for k in ("1,2", "1,1")}
    attempted = sum(e["checks"] for e in expected.values())
    assert run.score_pass({"units": units}, expected) == (0, attempted)
    assert run.score_pass({"error": "pass exited with code 1"}, expected) == (0, attempted)


def test_a_changed_output_counts_as_failed():
    units = workloads.run_pass("sweep-n6", lams("1,2", "1,1"), 0)
    expected = {k: dict(EXPECTED["sweep-n6"][k]) for k in ("1,2", "1,1")}
    assert run.score_pass({"units": units}, expected) == (
        sum(e["checks"] for e in expected.values()),) * 2
    expected["1,2"]["digest"] = "0" * 64
    assert run.score_pass({"units": units}, expected) == (
        expected["1,1"]["checks"], sum(e["checks"] for e in expected.values()))
