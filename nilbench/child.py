"""One benchmark pass in a fresh process.

    python3 -m nilbench.child --workload engine-n7 --seed 3
    python3 -m nilbench.child --workload engine-n7 --seed 3 --lambda 1,1,1,2,2
    python3 -m nilbench.child --workload sweep-n6 --seed 3 --trace

Run it from the root of the checkout. It imports nilcent from ./src, runs
the workload's units (or only the one given by --lambda) in the order the
seed gives, and prints one JSON object: set-up time, per-unit seconds,
output digests and check counts, peak RSS, the host-speed probe, and with
--trace the per-layer spans and counts.

Host speed on a shared machine drifts by 20-50% over seconds to minutes,
while the program's work does not. So a short fixed kernel is timed every
PROBE_INTERVAL_S throughout the process (from a SIGALRM handler, whose
time is excluded from every measurement), and each time of the pass is
also restated in reference seconds: measured seconds times the mean of
REF_PROBE_S over the probe times sampled during the pass (for a
unit's own time, around the unit). Both are reported.
"""

import time

_STARTED = time.perf_counter()

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PROBE_INTERVAL_S = 0.05
MIN_WINDOW_S = 1.0
REF_PROBE_S = 0.0008  # probe time that defines a reference second

_WORDS = tuple((i % 7, i % 5, i % 3) for i in range(40))
_MATRIX = tuple(tuple((i * j) % 5 - 2 for j in range(9)) for i in range(9))


def probe_kernel():
    """A fixed stdlib workload of about a millisecond.

    One part for each kind of work the layers do: accumulating into a dict
    keyed by tuples, concatenating words into dict keys, and a dense
    matrix product over tuples.
    """
    table = {}
    for i in range(1500):
        key = (i % 23, i % 7, i & 3)
        table[key] = table.get(key, 0) + (i * i) % 11
    words = {}
    for w1 in _WORDS:
        for w2 in _WORDS:
            w = w1 + w2
            words[w] = words.get(w, 0) + 1
    cols = tuple(zip(*_MATRIX))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                 for row in _MATRIX)


class HostClock:
    """A clock that excludes probe time, plus the probe samples taken.

    Calling the clock gives perf_counter seconds minus the time spent in
    probes so far; samples are (clock reading, probe seconds).
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.stolen = 0.0

    def __call__(self) -> float:
        return time.perf_counter() - self.stolen

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        seconds = timed_probe()
        self.samples.append((t0 - self.stolen, seconds))
        self.stolen += time.perf_counter() - t0

    def burst(self, count: int = 25) -> float:
        """Median probe seconds over a burst, measured in the foreground.

        Burst probes run back to back, so they stay out of the samples,
        where each sample stands for an equal slice of time.
        """
        times = []
        for _ in range(count):
            t0 = time.perf_counter()
            times.append(timed_probe())
            self.stolen += time.perf_counter() - t0
        return statistics.median(times)

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second over [start, end].

        The mean of REF_PROBE_S / probe over the samples: each sample
        stands for an equal slice of time, so this integrates the host's
        speed, and a probe slowed by an interrupt adds almost nothing.
        Short intervals are widened to MIN_WINDOW_S around their middle,
        so that every factor rests on about twenty samples.
        """
        mid = (start + end) / 2
        half = max(end - start, MIN_WINDOW_S) / 2
        inside = [p for t, p in self.samples if abs(t - mid) <= half]
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return statistics.fmean(REF_PROBE_S / p for p in inside)


def timed_probe() -> float:
    """Seconds of one probe_kernel call, with the cyclic GC held off.

    A collection that the probe's allocations would start scans the
    program's heap; held off, it runs later in program time, where it
    is counted.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    probe_kernel()
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


CLOCK = HostClock()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one benchmark pass")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lambda", dest="lam", default=None,
                    help="run this one composition instead of the workload's units")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--t0", type=float, default=None,
                    help="perf_counter reading of the parent just before the spawn")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import nilcent
    if not os.path.abspath(nilcent.__file__).startswith(SRC + os.sep):
        print(f"error: nilcent imported from {nilcent.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from nilcent.composition import Composition
    from nilbench import workloads
    from nilbench.tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2
    if args.lam is None:
        lams = workloads.units(args.workload, args.seed)
    else:
        lams = [Composition.from_string(args.lam)]
    start = args.t0 if args.t0 is not None else _STARTED
    setup_end = CLOCK()
    setup_s = setup_end - start

    probe_before = CLOCK.burst()
    if args.trace:
        with Tracer(clock=CLOCK) as tracer:
            units = workloads.run_pass(args.workload, lams, args.seed, tracer, CLOCK)
    else:
        units = workloads.run_pass(args.workload, lams, args.seed, clock=CLOCK)
    pass_end = CLOCK()
    probe_after = CLOCK.burst()
    CLOCK.stop()

    # the pass and its spans by the host speed over the pass; each unit by
    # that around it, so that a straggler is judged at its own time
    pass_factor = CLOCK.factor(units[0]["t0"], pass_end)
    for unit in units:
        unit["ref_seconds"] = unit["seconds"] * CLOCK.factor(
            unit["t0"], unit["t0"] + unit["seconds"])
    layers = None
    if args.trace:
        raw = tracer.metrics()
        layers = {k: v * pass_factor if k.endswith("_s") else v
                  for k, v in raw.items()}
        layers["trace.accounted_share"] = (
            sum(v for k, v in raw.items() if k.endswith("_s"))
            / sum(u["seconds"] for u in units))
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s * REF_PROBE_S / probe_before,
        "wall_s": sum(u["seconds"] for u in units) * pass_factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "measured": {"setup_s": setup_s,
                     "wall_s": sum(u["seconds"] for u in units),
                     "max_unit_s": max(u["seconds"] for u in units)},
        "probe_s": {"before": probe_before, "after": probe_after,
                    "during": statistics.median(p for _, p in CLOCK.samples)},
        "units": units,
        "layers": layers,
    }
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    CLOCK.start()  # for the whole process, so probe time never counts as set-up
    sys.exit(main())
