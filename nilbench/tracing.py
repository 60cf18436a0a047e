"""Spans around the public entry points of each nilcent layer.

Inside ``with Tracer() as tracer:`` every traced function is replaced, in
each loaded nilcent module that binds it, by a wrapper; the originals come
back on exit, and nothing under src/ changes. While ``tracer.recording``
is true a wrapper records its call as a span: the duration, and the growth
of the process's peak RSS while it ran. A span's self time is its duration
minus the time of the spans it contains, and likewise for RSS growth, so
the self times of all spans add up to the time spent inside traced calls.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time

from nilcent import centralizer, composition, enveloping

# (module, function, span name, count metric, count of one call's result);
# a count is kept once per distinct argument tuple
SPANS = (
    ("centralizer", "structure_constants", "centralizer.structure_constants",
     "centralizer.bracket_entries", lambda res: len(res.table)),
    ("centralizer", "verify_centralizer", "centralizer.verify_centralizer",
     None, None),
    ("linalg", "rational_rank", "linalg.rational_rank", None, None),
    ("enveloping", "pbw_algebra", "enveloping.pbw_algebra", None, None),
    ("enveloping", "central_element", "enveloping.central_element",
     "enveloping.z_terms", lambda res: len(res.terms)),
    ("enveloping", "verify_central", "enveloping.verify_central",
     "enveloping.generator_checks", lambda res: len(res.checks)),
    ("invariants", "elementary_invariant", "invariants.elementary_invariant",
     "invariants.x_monomials", lambda res: len(res.terms)),
    ("invariants", "top_symbol", "invariants.top_symbol", None, None),
    ("invariants", "verify_invariant", "invariants.verify_invariant", None, None),
    ("slice", "restrict", "slice.restrict", None, None),
    ("slice", "jacobian_independence", "slice.jacobian", None, None),
    ("freealg", "z_polynomial", "freealg.z_polynomial",
     "freealg.z_words", lambda res: sum(len(z.terms) for z in res)),
    ("freealg", "expansion_identity", "freealg.expansion_identity", None, None),
    ("freealg", "verify_graded_image", "freealg.graded_image", None, None),
    ("cli", "sweep_composition", "cli.sweep_self", None, None),
)

# counts read once per unit, after it ran
UNIT_COUNTS = ("centralizer.basis_dim", "composition.mu_count",
               "enveloping.nf_memo_entries")

RSS_LAYERS = ("enveloping", "freealg")


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _nf_memo_entries(lam):
    memo = getattr(enveloping.pbw_algebra(lam), "_nf_memo", None)
    return None if memo is None else len(memo)


class Tracer:
    """Per-span self time and RSS growth, and per-layer counts, of one pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.recording = False
        self.self_s = {span: 0.0 for _, _, span, _, _ in SPANS}
        self.rss_kb = {span: 0 for _, _, span, _, _ in SPANS}
        self.counts: dict[str, dict] = {
            name: {} for name in UNIT_COUNTS + tuple(
                c for _, _, _, c, _ in SPANS if c)
        }
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "nilcent" or name.startswith("nilcent.")]
        for module, func, span, count_name, count in SPANS:
            original = getattr(importlib.import_module(f"nilcent.{module}"), func)
            wrapper = self._wrap(original, span, count_name, count)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        return self

    def __exit__(self, *exc_info):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, original, span, count_name, count):
        stack = self._stack
        clock = self.clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            inner = [0.0, 0]  # seconds and RSS growth of contained spans
            stack.append(inner)
            rss0 = _peak_rss_kb()
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                growth = _peak_rss_kb() - rss0
                stack.pop()
                self.self_s[span] += elapsed - inner[0]
                self.rss_kb[span] += growth - inner[1]
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += growth
            if count_name:
                self._count(count_name, (args, tuple(sorted(kwargs.items()))),
                            count, result)
            return result

        return traced

    def _count(self, name, key, count, arg):
        try:
            value = count(arg)
        except (AttributeError, TypeError):  # the program changed the shape
            value = None
        self.counts[name][key] = value

    def after_unit(self, lam) -> None:
        """Counts that need the finished unit: read untraced, off the clock."""
        key = (lam,)
        self._count("centralizer.basis_dim", key, len,
                    centralizer.basis_list(lam))
        self._count("composition.mu_count", key,
                    lambda lam: sum(len(composition.enumerate_mu(lam, r))
                                    for r in range(1, lam.N + 1)), lam)
        self._count("enveloping.nf_memo_entries", key, _nf_memo_entries, lam)

    def metrics(self) -> dict:
        """Self seconds per span, RSS growth per layer, and the counts."""
        out = {f"{span}_s": t for span, t in self.self_s.items()}
        for layer in RSS_LAYERS:
            kb = sum(g for span, g in self.rss_kb.items()
                     if span.startswith(layer + "."))
            out[f"{layer}.rss_growth_mb"] = kb / 1024
        for name, per_key in self.counts.items():
            values = list(per_key.values())
            out[name] = None if None in values else sum(values)
        return out
