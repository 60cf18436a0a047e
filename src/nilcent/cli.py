"""Command line front end.

Exit codes: 0 on success, 2 on usage errors, 3 when a verification fails
or an internal check raises, 4 when memory runs out or, before anything
is built, when dim g_e exceeds the basis positions a word of bytes holds,
141 (128 + SIGPIPE) when the reader of stdout closes it before the output
is written.
All verification output on stdout is deterministic: no check draws a
random point, and the same arguments print the same bytes for any --jobs
and any hash seed.  Timing and error: lines go to stderr; a closed or
broken stderr drops them and changes neither stdout nor the exit code.
Only a sweep that runs more than one worker imports the process pool, so
sweep --jobs 1 and the per-composition subcommands load none of
multiprocessing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext, suppress

from . import enveloping
from .centralizer import (LABEL, WordLimitError, basis_list, unit_support,
                          verify_centralizer)
from .composition import (MAX_TOTAL, Composition, enumerate_mu,
                          invariant_degrees, monotone_compositions)
from .enveloping import filtration_degree, pbw_to_json_obj, verify_central
from .freealg import expansion_identity, verify_graded_image, z_polynomial
from .invariants import elementary_invariant, poly_to_json_obj, top_symbol
from .slice import jacobian_independence, slice_coordinates, verify_slice_coordinates

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports for yes | head

# The symbol-determinant checks join the sweep only for increasing
# compositions up to this N.  Cost does not set the cap: all three checks
# for 1^6 (z_polynomial, the expansion and the graded image, building the
# central elements included) take 0.10-0.16 s (2-core x86-64,
# Python 3.11.7).  Raising it adds rows to the sweep output, whose recorded
# benchmark digests and acceptance counts then change with it.
EXPANSION_CAP = 5


# seed is unused; nilbench/workloads.py passes it until the next benchmark change
def sweep_composition(lam: Composition, seed: int = 0) -> list[dict]:
    """All per-composition verification rows, as plain dicts.

    This is the single implementation behind both the sweep subcommand and
    the acceptance tests.  Row keys: check, lambda, r, ok, detail.  The
    invariance row of each r is derived from that r's centrality and
    top_symbol rows rather than walked; invariants.verify_invariant, the
    direct walk, is the reference the tests hold it to.
    """
    rows = []
    lam_s = lam.to_string()

    def row(check: str, r, ok: bool, detail: str = ""):
        rows.append({"check": check, "lambda": lam_s, "r": r,
                     "ok": bool(ok), "detail": detail})

    def report_row(check: str, r, rep, detail: str = ""):
        """A row for a Report; a failed one names its first failed check."""
        if not rep.ok:
            first = rep.failures()[0]
            witness = f"{first.name}: {first.detail}"
            detail = f"{detail}; {witness}" if detail else witness
        row(check, r, rep.ok, detail)

    # d_r against the nonzero parts of the mu that determinant_sum reads;
    # lowering a part of a weight-(r+1) mu shows that d_r <= d_(r+1)
    degrees = invariant_degrees(lam)
    ledger_ok = degrees == tuple(lam.n - enumerate_mu(lam, r)[0].count(0)
                                 for r in range(1, lam.N + 1))
    row("degree_ledger", None, ledger_ok, " ".join(map(str, degrees)))

    report_row("centralizer_structure", None, verify_centralizer(lam))

    if lam.is_increasing:
        srep = verify_slice_coordinates(lam)
    for r in range(1, lam.N + 1):
        rep = verify_central(lam, r)
        # read as verify_central reads it, so the rows describe the
        # element it checked
        z = enveloping.central_element(lam, r)
        report_row("centrality", r, rep,
                   f"{len(z.terms)} terms, {len(rep.checks)} generators")

        zero = "" if z else f"; z_{r} = 0"  # no degree and no top symbol
        row("filtration_degree", r,
            bool(z) and filtration_degree(z) == degrees[r - 1],
            f"expected {degrees[r - 1]}{zero}")

        x = elementary_invariant(lam, r)
        symbol_ok = bool(z) and top_symbol(z) == x
        row("top_symbol", r, symbol_ok, f"{len(x.terms)} monomials{zero}")

        # ad y preserves the PBW filtration, and on the associated graded
        # S(g_e) it induces ad y again, so the symbol map commutes with
        # ad: ad(y) sigma(z) is the degree-d part of [y, z], with d the top
        # degree of z that top_symbol reads.  If [y, z_r] = 0 for every y
        # (centrality) and sigma(z_r) = x_r (top_symbol), then ad(y) x_r = 0
        # exactly.  A failed premise's own row carries the witness.
        failed = [name for name, ok in (("centrality", rep.ok),
                                        ("top_symbol", symbol_ok)) if not ok]
        row("invariance", r, not failed,
            f"premise failed: {', '.join(failed)}" if failed else "")

        if lam.is_increasing:
            check = srep.checks[r - 1]
            row("slice_restriction", r, check.passed, check.detail)

    if lam.is_increasing:  # each restriction check has its own row above
        report_row("slice_bijection", None,
                   srep._replace(checks=srep.checks[-1:]))

    report_row("jacobian_rank", None, jacobian_independence(lam))

    if lam.is_increasing and lam.N <= EXPANSION_CAP:
        for r in range(1, lam.N + 1):
            report_row("symbol_expansion", r, expansion_identity(lam, r))
            report_row("graded_image", r, verify_graded_image(lam, r))

    return rows


def _timed_sweep(lam: Composition) -> tuple[list[dict], float]:
    """The rows of sweep_composition(lam) and its duration in seconds."""
    t0 = time.perf_counter()
    return sweep_composition(lam), time.perf_counter() - t0


def _to_stderr(line: str) -> None:
    """Print line to stderr; a closed or broken stderr drops it, so that it
    changes neither stdout nor the exit code."""
    # sys.stderr is None when the interpreter started with fd 2 closed, and
    # print(file=None) would write to stdout
    if sys.stderr is not None:
        with suppress(OSError):
            print(line, file=sys.stderr)


def _sweep(max_n: int, jobs: int) -> tuple:
    if not 1 <= max_n <= MAX_TOTAL:
        raise ValueError(f"--max-N must lie in 1..{MAX_TOTAL}, got {max_n}")
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    lams = []
    for total in range(1, max_n + 1):
        lams.extend(monotone_compositions(total))
    lams.sort(key=lambda c: (c.N, c.parts))

    t0 = time.perf_counter()
    # the pool starts all its workers at the first submit, so it gets no
    # more than there are compositions or CPUs to run them; one worker
    # runs serially
    workers = min(jobs, len(lams), os.cpu_count() or 1)
    context = nullcontext()
    if workers > 1:
        # the pool's modules (multiprocessing, socket, pickle, logging and
        # more) load only here, so a serial run never pays for them
        from concurrent.futures import ProcessPoolExecutor
        context = ProcessPoolExecutor(max_workers=workers)
    per_lam = []
    with context as pool:
        mapped = (pool.map if pool else map)(_timed_sweep, lams)
        for lam, (chunk, seconds) in zip(lams, mapped):
            _to_stderr(f"lambda={lam}: {seconds:.2f}s")
            per_lam.append(chunk)
    _to_stderr(f"sweep total: {time.perf_counter() - t0:.2f}s")

    rows = [r for chunk in per_lam for r in chunk]
    ok = all(r["ok"] for r in rows)
    obj = {"schema": 1, "max_N": max_n, "ok": ok, "rows": rows}
    lines = []
    for lam, chunk in zip(lams, per_lam):
        bad = [r for r in chunk if not r["ok"]]
        status = "ok" if not bad else "FAILED"
        lines.append(f"lambda={lam}  N={lam.N}  checks={len(chunk)}  {status}")
        for r in bad:
            where = f" r={r['r']}" if r["r"] is not None else ""
            lines.append(f"  FAIL {r['check']}{where}  {r['detail']}")
    lines.append(f"{'SWEEP OK' if ok else 'SWEEP FAILED'}: "
                 f"{len(lams)} compositions, {len(rows)} checks")
    return obj, lines, ok


def _r_range(lam: Composition, r: int | None) -> list[int]:
    if r is None:
        return list(range(1, lam.N + 1))
    if not 1 <= r <= lam.N:
        raise ValueError(f"--r must lie in 1..{lam.N}, got {r}")
    return [r]


def _per_weight(lam: Composition, r: int | None, one) -> tuple:
    """Join one(r) over the weights: a JSON list, or one object under --r."""
    results = [one(s) for s in _r_range(lam, r)]
    objs = [obj for obj, _, _ in results]
    return (objs if r is None else objs[0],
            [line for _, lines, _ in results for line in lines],
            all(ok for _, _, ok in results))


def _degrees(lam: Composition, ns) -> tuple:
    degrees = invariant_degrees(lam)
    obj = {"schema": 1, "lambda": lam.to_string(), "degrees": list(degrees)}
    return obj, [" ".join(map(str, degrees))], True


def _basis(lam: Composition, ns) -> tuple:
    basis = basis_list(lam)
    units = [unit_support(lam, idx) for idx in basis]
    obj = {"schema": 1, "lambda": lam.to_string(), "dim": len(basis),
           "basis": [{"index": list(idx), "units": [list(u) for u in us]}
                     for idx, us in zip(basis, units)]}
    lines = [f"{LABEL} = ".format(idx)
             + " + ".join(f"E({h},{k})" for h, k in us)
             for idx, us in zip(basis, units)]
    return obj, lines + [f"dim = {len(basis)}"], True


def _central(lam: Composition, ns) -> tuple:
    def one(r):
        z = enveloping.central_element(lam, r)
        if not z:
            raise RuntimeError(f"z_{r} = 0 has no filtration degree")
        obj = pbw_to_json_obj(z)
        obj.update(r=r, filtration_degree=filtration_degree(z))
        return obj, [f"z_{r} = {z!r}"], True
    return _per_weight(lam, ns.r, one)


def _invariants(lam: Composition, ns) -> tuple:
    def one(r):
        x = elementary_invariant(lam, r)
        obj = poly_to_json_obj(lam, x)
        obj["r"] = r
        return obj, [f"x_{r} = {x!r}"], True
    return _per_weight(lam, ns.r, one)


def _slice(lam: Composition, ns) -> tuple:
    rep = verify_slice_coordinates(lam)
    jac = jacobian_independence(lam)
    obj = {"schema": 1, "lambda": lam.to_string(),
           "coordinates": [list(v) for v in slice_coordinates(lam)],
           "restriction": rep.to_json_obj(),
           "jacobian": jac.to_json_obj()}
    return obj, rep.lines() + jac.lines(), rep.ok and jac.ok


def _qdet(lam: Composition, ns) -> tuple:
    # the graded image multiplies in the enveloping algebra: building it
    # first stops a lam whose words cannot hold dim g_e letters at once
    enveloping.pbw_algebra(lam)

    def one(r):
        z = z_polynomial(lam)[r - 1]
        exp = expansion_identity(lam, r)
        grad = verify_graded_image(lam, r)
        obj = {"schema": 1, "lambda": lam.to_string(), "r": r,
               "words": len(z.terms),
               "expansion": exp.to_json_obj(),
               "graded_image": grad.to_json_obj()}
        lines = [f"Z_{r} = {z!r}"] + exp.lines() + grad.lines()
        return obj, lines, exp.ok and grad.ok
    return _per_weight(lam, ns.r, one)


def _verify(lam: Composition, ns) -> tuple:
    reports = [verify_central(lam, r) for r in _r_range(lam, ns.r)]
    ok = all(rep.ok for rep in reports)
    obj = {"schema": 1, "lambda": lam.to_string(), "ok": ok,
           "reports": [rep.to_json_obj() for rep in reports]}
    lines = []
    for rep in reports:
        lines.append(f"{'PASS' if rep.ok else 'FAIL'}  {rep.subject}")
        lines.extend(f"  FAIL {c.name}  {c.detail}" for c in rep.failures())
    lines.append("OK" if ok else "VERIFICATION FAILED")
    return obj, lines, ok


# per-composition subcommand: (handler, help, takes --r);
# a handler maps (lam, parsed arguments) to (JSON object, text lines, ok)
COMMANDS = {
    "degrees": (_degrees, "degree sequence of the generating invariants", False),
    "basis": (_basis, "centralizer basis and its matrix units", False),
    "central": (_central, "central generators in PBW normal form", True),
    "invariants": (_invariants, "top symbols in the symmetric algebra", True),
    "slice": (_slice, "slice restriction and Jacobian independence", False),
    "qdet": (_qdet, "symbol determinant, expansion and graded image", True),
    "verify": (_verify, "centrality of every generator", True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcent",
        description="Exact central generators for centralizer enveloping algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, takes_r) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS",
                       help="comma separated parts, e.g. 1,2 or 4,3,2")
        if takes_r:
            p.add_argument("--r", type=int, default=None,
                           help="single weight (default: all 1..N)")
        p.add_argument("--json", dest="as_json", action="store_true",
                       help="machine readable output")
    p = sub.add_parser("sweep",
                       help="run every check over all compositions up to a size")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="machine readable output")
    p.add_argument("--max-N", dest="max_n", type=int, default=6,
                   help=f"largest composition total, 1..{MAX_TOTAL} (default 6)")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="parallel workers, at least 1, capped at the CPU count "
                        "and the number of compositions (default: CPU count)")
    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        if ns.command == "sweep":
            obj, lines, ok = _sweep(ns.max_n, ns.jobs)
        else:
            handler = COMMANDS[ns.command][0]
            obj, lines, ok = handler(Composition.from_string(ns.lam), ns)
        # flushed here, so that a closed reader raises inside the try
        print(json.dumps(obj, indent=2, sort_keys=True) if ns.as_json
              else "\n".join(lines), flush=True)
        return EXIT_OK if ok else EXIT_VERIFY
    except BrokenPipeError:
        # the reader closed stdout; point fd 1 at devnull so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ValueError as exc:
        _to_stderr(f"error: {exc}")
        return EXIT_USAGE
    except RuntimeError as exc:
        _to_stderr(f"error: {exc}")
        return EXIT_VERIFY
    except WordLimitError as exc:
        _to_stderr(f"error: {exc}")
        return EXIT_RESOURCE
    except MemoryError:
        _to_stderr("error: out of memory")
        return EXIT_RESOURCE
