"""Every symbol-n6 unit and every sweep-n6 unit with N <= 5 reproduces the
output digest and check count recorded in nilbench/expected.json.

The units run in-process through nilbench.workloads.run_pass, so a change
of any result of those paths, a check name, a row order or a pass/fail
bit, fails here and not only in the benchmark.
"""

import json

import pytest

from nilbench import run, workloads
from nilbench.test_nilbench import clear_caches

with open(run.EXPECTED_PATH) as fh:
    EXPECTED = json.load(fh)

# (workload, largest N run, number of units run)
CASES = [("symbol-n6", 6, 29), ("sweep-n6", 5, 26)]


@pytest.fixture
def cold_caches():
    """Start and leave every lru_cache of nilcent empty."""
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("workload,max_n,count", CASES, ids=[c[0] for c in CASES])
def test_digests_match_the_record(workload, max_n, count, cold_caches):
    lams = [lam for lam in workloads.units(workload, seed=0) if lam.N <= max_n]
    got = {u["lambda"]: u for u in workloads.run_pass(workload, lams, seed=0)}
    expected = EXPECTED[workload]
    assert len(got) == count
    for lam, unit in got.items():
        assert "error" not in unit, (lam, unit["error"])
        want = expected[lam]
        assert (unit["digest"], unit["checks"], unit["passed"]) == (
            want["digest"], want["checks"], want["checks"]), lam
