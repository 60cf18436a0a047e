"""The four workloads: which compositions a pass runs and what one unit does.

A unit is one composition. Running a unit calls only public nilcent entry
points; its mathematical output is then reduced, outside the timed region,
to a canonical JSON object whose hash guards against a change of result.

Units call the program through module attributes (``cli.sweep_composition``
rather than a name imported here) so that the tracer, which swaps those
attributes, sees the call.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from nilcent import cli, enveloping, freealg, invariants
from nilcent.composition import Composition, monotone_compositions
from nilcent.linalg import format_scalar


def _monotone(low: int, high: int) -> list[Composition]:
    return [lam for total in range(low, high + 1)
            for lam in monotone_compositions(total)]


def _z_objs(lam: Composition) -> list:
    return [enveloping.pbw_to_json_obj(enveloping.central_element(lam, r))
            for r in range(1, lam.N + 1)]


def _report_rows(r: int, report) -> list:
    """(r, check name, passed) of every check; free-text detail is left out."""
    return [[r, c.name, c.passed] for c in report.checks]


def _run_sweep(lam: Composition, seed: int):
    return cli.sweep_composition(lam, seed)


def _sweep_material(lam: Composition, rows):
    obj = {
        "rows": [[row["check"], row["r"], row["ok"]] for row in rows],
        "z": _z_objs(lam),
        "x": [invariants.poly_to_json_obj(lam, invariants.elementary_invariant(lam, r))
              for r in range(1, lam.N + 1)],
    }
    return obj, [row["ok"] for row in rows]


def _run_engine(lam: Composition, seed: int):
    return [enveloping.verify_central(lam, r) for r in range(1, lam.N + 1)]


def _engine_material(lam: Composition, reports):
    rows = [row for r, rep in enumerate(reports, start=1)
            for row in _report_rows(r, rep)]
    return {"rows": rows, "z": _z_objs(lam)}, [row[2] for row in rows]


def _run_symbol(lam: Composition, seed: int):
    zs = freealg.z_polynomial(lam)
    reports = [(r, rep) for r in range(1, lam.N + 1)
               for rep in (freealg.expansion_identity(lam, r),
                           freealg.verify_graded_image(lam, r))]
    return zs, reports


def _symbol_material(lam: Composition, result):
    zs, reports = result
    words = [sorted([[list(x) for x in word], format_scalar(c)]
                    for word, c in z.terms.items())
             for z in zs]
    rows = [row for r, rep in reports for row in _report_rows(r, rep)]
    return {"rows": rows, "Z": words}, [row[2] for row in rows]


@dataclass(frozen=True)
class Workload:
    select: Callable[[], list[Composition]]
    run: Callable
    material: Callable


WORKLOADS = {
    # acceptance and `nilcent sweep --jobs 1` traffic: every layer, mixed
    "sweep-n6": Workload(lambda: _monotone(1, 6), _run_sweep, _sweep_material),
    # the normal-form engine alone; 1^7 is left out (one 16 s unit is one
    # noisy sample)
    "engine-n7": Workload(
        lambda: [lam for lam in _monotone(6, 7)
                 if lam.n >= 4 and lam.parts != (1,) * 7],
        _run_engine, _engine_material),
    # the `nilcent qdet` path: column determinants in the free algebra
    "symbol-n6": Workload(
        lambda: [lam for lam in _monotone(1, 6) if lam.is_increasing],
        _run_symbol, _symbol_material),
    # few Jordan blocks, large N: structure constants and centralizer checks
    "wide-n10": Workload(
        lambda: [lam for lam in _monotone(8, 10) if lam.n <= 3],
        _run_sweep, _sweep_material),
}


def units(workload: str, seed: int) -> list[Composition]:
    """The workload's compositions in the order the seed gives them."""
    lams = sorted(WORKLOADS[workload].select(), key=lambda c: (c.N, c.parts))
    random.Random(seed).shuffle(lams)
    return lams


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(workload: str, lams, seed: int, tracer=None,
             clock=time.perf_counter) -> list[dict]:
    """Run each unit once; a unit that raises is recorded, not skipped.

    Each result holds the clock reading at the unit's start, its timed
    seconds, and either its output digest with its check counts, or the
    error it raised.
    """
    spec = WORKLOADS[workload]
    results = []
    for lam in lams:
        unit = {"lambda": lam.to_string()}
        try:
            if tracer is not None:
                tracer.recording = True
            unit["t0"] = t0 = clock()
            try:
                result = spec.run(lam, seed)
            finally:
                unit["seconds"] = clock() - t0
                if tracer is not None:
                    tracer.recording = False
            material, checks = spec.material(lam, result)
            unit["digest"] = digest(material)
            unit["checks"] = len(checks)
            unit["passed"] = sum(1 for ok in checks if ok)
            if tracer is not None:
                tracer.after_unit(lam)
        except Exception as exc:  # the pass goes on; the unit counts as failed
            traceback.print_exc(file=sys.stderr)
            unit["error"] = f"{type(exc).__name__}: {exc}"
        results.append(unit)
    return results
