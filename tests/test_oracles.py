"""The reference-loop table that CI runs at N = 7 and 8.

The loops themselves are too slow for tier-1, whose twins run the same
oracles at smaller N; here only the table's counts and the runner's
lines and exit code are checked.
"""

from oracles import REFERENCE_LOOPS, reference_lambdas, run_reference_loops


def test_pinned_counts_match_the_lambda_sets():
    for what, _, _, totals, increasing, pinned in REFERENCE_LOOPS:
        lams = reference_lambdas(totals, increasing)
        assert sum(lam.N for lam in lams) == pinned, what


def test_one_line_per_loop_and_exit_code(capsys):
    """1 when a loop fails on some (lambda, r) or miscounts, else 0."""
    first = reference_lambdas((3,), True)[0]
    passes = ("passes", "walks", lambda lams: [], (3,), True, 9)
    fails = ("fails", "(lambda, r)", lambda lams: [(lams[0], 1)], (3,), True, 9)
    miscounts = ("miscounts", "walks", lambda lams: [], (3,), False, 9)
    assert run_reference_loops((passes,)) == 0
    assert run_reference_loops((passes, fails)) == 1
    assert run_reference_loops((miscounts,)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "passes: 9 walks, 0 failed",
        "passes: 9 walks, 0 failed",
        f"fails: 9 (lambda, r), 1 failed {(first, 1)}",
        "miscounts: 12 walks, 0 failed"]
