"""Command line front end.

Exit codes: 0 on success, 2 on usage errors, 3 when a verification fails
or an internal check raises, 4 when memory runs out.
All verification output on stdout is deterministic for a fixed seed;
timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .centralizer import basis_list, structure_constants, unit_support, verify_centralizer
from .composition import Composition, invariant_degrees, min_length, monotone_compositions
from .enveloping import (
    central_element,
    filtration_degree,
    pbw_algebra,
    pbw_to_json_obj,
    verify_central,
)
from .freealg import expansion_identity, verify_graded_image, z_polynomial
from .invariants import elementary_invariant, poly_to_json_obj, top_symbol, verify_invariant
from .slice import (
    expected_restriction,
    jacobian_independence,
    restrict,
    slice_coordinates,
    verify_slice_coordinates,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4

# The symbol-determinant checks join the sweep only for increasing
# compositions up to this N.  Cost does not set the cap: all three checks
# for 1^6 take under a second (2-core x86-64, Python 3.11).  Raising it
# adds rows to the sweep output, whose recorded benchmark digests and
# acceptance counts then change with it.
EXPANSION_CAP = 5


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation, normalized and validated."""

    command: str
    lam: Composition | None = None
    r: int | None = None
    seed: int = 0
    max_n: int = 6
    jobs: int = 1
    as_json: bool = False


def sweep_composition(lam: Composition, seed: int = 0) -> list[dict]:
    """All per-composition verification rows, as plain dicts.

    This is the single implementation behind both the sweep subcommand and
    the acceptance tests.  Row keys: check, lambda, r, ok, detail.
    """
    rows = []
    lam_s = lam.to_string()

    def row(check: str, r, ok: bool, detail: str = ""):
        rows.append({"check": check, "lambda": lam_s, "r": r,
                     "ok": bool(ok), "detail": detail})

    degrees = invariant_degrees(lam)
    ledger_ok = len(degrees) == lam.N and all(
        degrees[r - 1] == min_length(lam, r) for r in range(1, lam.N + 1)
    ) and all(a <= b for a, b in zip(degrees, degrees[1:]))
    row("degree_ledger", None, ledger_ok, " ".join(map(str, degrees)))

    struct = verify_centralizer(lam)
    row("centralizer_structure", None, struct.ok,
        "; ".join(c.name for c in struct.failures()))

    for r in range(1, lam.N + 1):
        rep = verify_central(lam, r)
        z = central_element(lam, r)
        row("centrality", r, rep.ok,
            f"{len(z.terms)} terms, {len(rep.checks)} generators")

        row("filtration_degree", r, filtration_degree(z) == degrees[r - 1],
            f"expected {degrees[r - 1]}")

        x = elementary_invariant(lam, r)
        row("top_symbol", r, top_symbol(z) == x, f"{len(x.terms)} monomials")
        row("invariance", r, verify_invariant(lam, r).ok, "")

        if lam.is_increasing:
            row("slice_restriction", r,
                restrict(lam, x) == expected_restriction(lam, r), "")

    if lam.is_increasing:
        srep = verify_slice_coordinates(lam)
        row("slice_bijection", None, srep.ok, "")

    cert = jacobian_independence(lam, seed=seed)
    row("jacobian_rank", None, cert.certified,
        f"rank {cert.rank} of {cert.target} at point {cert.point_index}")

    if lam.is_increasing and lam.N <= EXPANSION_CAP:
        for r in range(1, lam.N + 1):
            row("symbol_expansion", r, expansion_identity(lam, r).ok, "")
            row("graded_image", r, verify_graded_image(lam, r).ok, "")

    return rows


def _sweep_worker(args: tuple) -> list[dict]:
    parts, seed = args
    try:
        return sweep_composition(Composition(parts), seed)
    finally:
        # one composition's cached results are of no use to the next
        for cache in (pbw_algebra, structure_constants,
                      elementary_invariant, z_polynomial):
            cache.cache_clear()


def run_sweep(config: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    cap = int(os.environ.get("NILCENT_MAX_N", str(config.max_n)))
    max_n = min(config.max_n, cap)
    if max_n < config.max_n:
        print(f"max N clamped to {max_n} by NILCENT_MAX_N", file=err)

    lams = []
    for total in range(1, max_n + 1):
        lams.extend(monotone_compositions(total))
    lams.sort(key=lambda c: (c.N, c.parts))

    tasks = [(lam.parts, config.seed) for lam in lams]
    t0 = time.time()
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            per_lam = list(pool.map(_sweep_worker, tasks))
    else:
        per_lam = []
        for task in tasks:
            t1 = time.time()
            per_lam.append(_sweep_worker(task))
            print(f"lambda={','.join(map(str, task[0]))}: "
                  f"{time.time() - t1:.2f}s", file=err)
    print(f"sweep total: {time.time() - t0:.2f}s", file=err)

    rows = [r for chunk in per_lam for r in chunk]
    ok = all(r["ok"] for r in rows)
    if config.as_json:
        obj = {"schema": 1, "max_N": max_n, "seed": config.seed,
               "ok": ok, "rows": rows}
        print(json.dumps(obj, indent=2, sort_keys=True), file=out)
    else:
        for lam, chunk in zip(lams, per_lam):
            bad = [r for r in chunk if not r["ok"]]
            status = "ok" if not bad else "FAILED"
            print(f"lambda={lam}  N={lam.N}  checks={len(chunk)}  {status}",
                  file=out)
            for r in bad:
                where = f" r={r['r']}" if r["r"] is not None else ""
                print(f"  FAIL {r['check']}{where}  {r['detail']}", file=out)
        print(f"{'SWEEP OK' if ok else 'SWEEP FAILED'}: "
              f"{len(lams)} compositions, {len(rows)} checks", file=out)
    return EXIT_OK if ok else EXIT_VERIFY


def _r_range(lam: Composition, r: int | None) -> list[int]:
    if r is None:
        return list(range(1, lam.N + 1))
    if not 1 <= r <= lam.N:
        raise ValueError(f"--r must lie in 1..{lam.N}, got {r}")
    return [r]


def run_command(config: RunConfig, out=None) -> int:
    out = out or sys.stdout
    lam = config.lam
    if config.command == "sweep":
        return run_sweep(config, out=out)
    assert lam is not None

    if config.command == "degrees":
        degrees = invariant_degrees(lam)
        if config.as_json:
            obj = {"schema": 1, "lambda": lam.to_string(),
                   "degrees": list(degrees)}
            print(json.dumps(obj, indent=2, sort_keys=True), file=out)
        else:
            print(" ".join(map(str, degrees)), file=out)
        return EXIT_OK

    if config.command == "basis":
        basis = basis_list(lam)
        if config.as_json:
            obj = {"schema": 1, "lambda": lam.to_string(), "dim": len(basis),
                   "basis": [{"index": list(idx),
                              "units": [list(u) for u in unit_support(lam, idx)]}
                             for idx in basis]}
            print(json.dumps(obj, indent=2, sort_keys=True), file=out)
        else:
            for idx in basis:
                units = " + ".join(f"E({h},{k})" for h, k in unit_support(lam, idx))
                print(f"e[{idx.i},{idx.j};{idx.r}] = {units}", file=out)
            print(f"dim = {len(basis)}", file=out)
        return EXIT_OK

    if config.command == "central":
        rs = _r_range(lam, config.r)
        objs = []
        for r in rs:
            z = central_element(lam, r)
            if config.as_json:
                obj = pbw_to_json_obj(z)
                obj["r"] = r
                obj["filtration_degree"] = filtration_degree(z)
                objs.append(obj)
            else:
                print(f"z_{r} = {z!r}", file=out)
        if config.as_json:
            print(json.dumps(objs if config.r is None else objs[0],
                             indent=2, sort_keys=True), file=out)
        return EXIT_OK

    if config.command == "invariants":
        rs = _r_range(lam, config.r)
        objs = []
        for r in rs:
            x = elementary_invariant(lam, r)
            if config.as_json:
                obj = poly_to_json_obj(lam, x)
                obj["r"] = r
                objs.append(obj)
            else:
                print(f"x_{r} = {x!r}", file=out)
        if config.as_json:
            print(json.dumps(objs if config.r is None else objs[0],
                             indent=2, sort_keys=True), file=out)
        return EXIT_OK

    if config.command == "slice":
        rep = verify_slice_coordinates(lam)
        cert = jacobian_independence(lam, seed=config.seed)
        if config.as_json:
            obj = {"schema": 1, "lambda": lam.to_string(),
                   "coordinates": [list(v) for v in slice_coordinates(lam)],
                   "restriction": rep.to_json_obj(),
                   "jacobian": cert.to_json_obj()}
            print(json.dumps(obj, indent=2, sort_keys=True), file=out)
        else:
            for line in rep.lines():
                print(line, file=out)
            status = "certified" if cert.certified else "inconclusive"
            print(f"jacobian rank {cert.rank} of {cert.target}: {status}",
                  file=out)
        ok = rep.ok and cert.certified
        return EXIT_OK if ok else EXIT_VERIFY

    if config.command == "qdet":
        rs = _r_range(lam, config.r)
        zs = z_polynomial(lam)
        objs = []
        ok = True
        for r in rs:
            exp = expansion_identity(lam, r)
            grad = verify_graded_image(lam, r)
            ok = ok and exp.ok and grad.ok
            if config.as_json:
                objs.append({
                    "schema": 1, "lambda": lam.to_string(), "r": r,
                    "words": len(zs[r - 1].terms),
                    "expansion": exp.to_json_obj(),
                    "graded_image": grad.to_json_obj(),
                })
            else:
                print(f"Z_{r} = {zs[r - 1]!r}", file=out)
                for line in exp.lines() + grad.lines():
                    print(line, file=out)
        if config.as_json:
            print(json.dumps(objs if config.r is None else objs[0],
                             indent=2, sort_keys=True), file=out)
        return EXIT_OK if ok else EXIT_VERIFY

    if config.command == "verify":
        reports = [verify_central(lam, r) for r in _r_range(lam, config.r)]
        ok = all(rep.ok for rep in reports)
        if config.as_json:
            obj = {"schema": 1, "lambda": lam.to_string(), "ok": ok,
                   "reports": [rep.to_json_obj() for rep in reports]}
            print(json.dumps(obj, indent=2, sort_keys=True), file=out)
        else:
            for rep in reports:
                summary = "PASS" if rep.ok else "FAIL"
                print(f"{summary}  {rep.subject}", file=out)
                for c in rep.failures():
                    print(f"  FAIL {c.name}  {c.detail}", file=out)
            print("OK" if ok else "VERIFICATION FAILED", file=out)
        return EXIT_OK if ok else EXIT_VERIFY

    raise AssertionError(f"unhandled command {config.command}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcent",
        description="Exact central generators for centralizer enveloping algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, needs_lambda: bool = True,
            takes_r: bool = False, takes_seed: bool = False):
        p = sub.add_parser(name, help=help_)
        if needs_lambda:
            p.add_argument("--lambda", dest="lam", required=True,
                           metavar="PARTS",
                           help="comma separated parts, e.g. 1,2 or 4,3,2")
        if takes_r:
            p.add_argument("--r", type=int, default=None,
                           help="single weight (default: all 1..N)")
        if takes_seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", dest="as_json", action="store_true",
                       help="machine readable output")
        return p

    add("degrees", "degree sequence of the generating invariants")
    add("basis", "centralizer basis and its matrix units")
    add("central", "central generators in PBW normal form", takes_r=True)
    add("invariants", "top symbols in the symmetric algebra", takes_r=True)
    add("slice", "slice restriction and Jacobian independence", takes_seed=True)
    add("qdet", "symbol determinant, expansion and graded image", takes_r=True)
    p = add("verify", "centrality of every generator", takes_r=True)
    p.add_argument("--all-r", dest="all_r", action="store_true",
                   help="check every weight 1..N (the default when --r is absent)")
    p = add("sweep", "run every check over all compositions up to a size",
            needs_lambda=False, takes_seed=True)
    p.add_argument("--max-N", dest="max_n", type=int, default=6,
                   help="largest composition total (default 6; "
                        "NILCENT_MAX_N caps it)")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="parallel workers (default: CPU count)")
    return parser


def parse_config(argv) -> RunConfig:
    ns = build_parser().parse_args(argv)
    lam = Composition.from_string(ns.lam) if getattr(ns, "lam", None) else None
    r = getattr(ns, "r", None)
    if getattr(ns, "all_r", False):
        r = None
    return RunConfig(
        command=ns.command,
        lam=lam,
        r=r,
        seed=getattr(ns, "seed", 0),
        max_n=getattr(ns, "max_n", 6),
        jobs=getattr(ns, "jobs", 1),
        as_json=ns.as_json,
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
        return run_command(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
