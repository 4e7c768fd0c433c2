"""Tracing from outside the package: wrap the module attributes the CLI
calls through, record spans in memory, and derive the per-layer split.

A span is (name, start, end, parent, value): `parent` is the index of the
enclosing span or -1, `value` a per-span count (primes yielded by a sieve
step, terms of an L-sum, rows emitted, classes filled by a sweep).  Hot
functions get a call counter instead of a span.
"""
from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import Counter
from pathlib import Path

SIEVE = "arith.sieve"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.l_one_peak_bytes = 0
        self._l_one_peak = self._l_one_held = 0

    def _open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, self.clock(), None, self.stack[-1] if self.stack else -1, 0])
        self.stack.append(i)
        return i

    def _close(self, i: int, value=0) -> None:
        self.stack.pop()
        span = self.spans[i]
        span[2] = self.clock()
        span[4] = value

    def _inside(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def span(self, name: str, fn, value=None):
        """Wrap fn in a span; value(result) gives the span's count."""
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            i = self._open(name)
            result = None
            try:
                result = fn(*args, **kw)
                return result
            finally:
                self._close(i, value(result) if value and result is not None else 0)
        return wrapper

    def counter(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            self.counts[key] += 1
            return fn(*args, **kw)
        return wrapper

    def sieve_blocks(self, fn):
        """Wrap a block generator: each next() is a sieve span."""
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            nested = self._inside(SIEVE)  # sieve_primes drives the generator
            if not nested:
                self.counts["sieve_calls"] += 1
            gen = fn(*args, **kw)
            while True:
                i = self._open(SIEVE)
                try:
                    block = next(gen)
                except StopIteration:
                    self._close(i)
                    return
                except BaseException:
                    self._close(i)
                    raise
                self._close(i, 0 if nested else len(block))
                yield block
        return wrapper

    def sieve_primes(self, fn):
        inner = self.span(SIEVE, fn, value=len)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            self.counts["sieve_calls"] += 1
            return inner(*args, **kw)
        return wrapper

    def l_one(self, fn):
        """Span plus the peak memory traced by tracemalloc during the call.

        chi_table runs untraced (see chi_table below): tracemalloc would
        slow its per-prime Python loop about tenfold.
        """
        inner = self.span("arith.l_one", fn, value=lambda est: est.terms)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            self._l_one_held = self._l_one_peak = 0
            tracemalloc.start()
            try:
                return inner(*args, **kw)
            finally:
                peak = self._l_one_held + tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.l_one_peak_bytes = max(self.l_one_peak_bytes, self._l_one_peak, peak)
        return wrapper

    def chi_table(self, fn):
        """Span; inside l_one, pause tracemalloc and count the returned
        table as held for the rest of the call."""
        inner = self.span("arith.chi_table", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if not tracemalloc.is_tracing():
                return inner(*args, **kw)
            current, peak = tracemalloc.get_traced_memory()
            self._l_one_peak = max(self._l_one_peak, self._l_one_held + peak)
            self._l_one_held += current  # still held once tracing restarts
            tracemalloc.stop()
            try:
                table = inner(*args, **kw)
            finally:
                tracemalloc.start()
            self._l_one_held += table.nbytes
            return table
        return wrapper

    def emit_rows(self, fn):
        inner = self.span("cli.emit", fn)

        @functools.wraps(fn)
        def wrapper(rows, *args, **kw):
            self.counts["rows"] += len(rows)
            return inner(rows, *args, **kw)
        return wrapper

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "spans": self.spans,
            "counts": dict(self.counts),
            "l_one_peak_bytes": self.l_one_peak_bytes,
        }))


def _replace(modules, attr: str, wrapper) -> None:
    for mod in modules:
        if hasattr(mod, attr):
            setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Swap the package's functions for traced wrappers, in every module
    namespace that binds them (`from x import f` makes a second binding)."""
    from classprime import arith, classgroup, cli, heegner, qform, stats

    everywhere = (arith, classgroup, cli, heegner, qform, stats)
    _replace([arith], "iter_prime_blocks", tracer.sieve_blocks(arith.iter_prime_blocks))
    _replace([arith], "sieve_primes", tracer.sieve_primes(arith.sieve_primes))
    _replace([arith], "classify_prime", tracer.counter("classify_calls", arith.classify_prime))
    _replace([arith], "chi_table", tracer.chi_table(arith.chi_table))
    _replace([arith], "l_one_chi", tracer.l_one(arith.l_one_chi))
    _replace([stats], "psi_by_class", tracer.span("stats.psi", stats.psi_by_class))
    _replace([stats], "_least_sweep", tracer.span(
        "stats.sweep", stats._least_sweep,
        value=lambda r: sum(p is not None for p in r[0])))
    _replace([stats], "variance_report", tracer.span("stats.chars", stats.variance_report))
    _replace(everywhere, "enumerate_reduced_forms", tracer.span(
        "classgroup.enumerate", classgroup.enumerate_reduced_forms))
    _replace(everywhere, "group_structure", tracer.span(
        "classgroup.structure", classgroup.group_structure))
    classgroup.ClassGroup.compose_idx = tracer.counter(
        "compose_idx_calls", classgroup.ClassGroup.compose_idx)
    _replace([classgroup, qform], "compose", tracer.counter("compose_calls", qform.compose))
    _replace(everywhere, "_reduce_triple", tracer.counter("reduce_calls", qform._reduce_triple))
    for name in ("heegner_point", "heegner_points", "repulsion_report",
                 "coefficient_bound_fraction", "cramer_prediction",
                 "cramer_class_number_pairing"):
        _replace([heegner], name, tracer.span("heegner", getattr(heegner, name)))
    _replace([cli], "emit", tracer.span("cli.emit", cli.emit))
    _replace([cli], "emit_rows", tracer.emit_rows(cli.emit_rows))


# ---------------------------------------------------------------------------
# analysis

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (times in seconds)."""
    spans, counts = trace["spans"], trace["counts"]
    own = self_times(spans)
    by_name: Counter = Counter()
    calls: Counter = Counter()
    for (name, *_), t in zip(spans, own):
        by_name[name] += t
        calls[name] += 1

    def sieve_primes_under(layer: str) -> int:
        return sum(s[4] for s in spans if s[0] == SIEVE and s[3] >= 0
                   and spans[s[3]][0] == layer)

    def per_prime_ns(t: float, n: int) -> float:
        return 1e9 * t / n if n else 0.0

    sieve_primes = sum(s[4] for s in spans if s[0] == SIEVE)
    psi_primes = sieve_primes_under("stats.psi")
    sweep_primes = sieve_primes_under("stats.sweep")
    filled = sum(s[4] for s in spans if s[0] == "stats.sweep")
    return {
        "arith.sieve_s": by_name[SIEVE],
        "arith.sieve_calls": counts.get("sieve_calls", 0),
        "arith.sieve_primes": sieve_primes,
        "arith.sieve_ns_per_prime": per_prime_ns(by_name[SIEVE], sieve_primes),
        "arith.classify_calls": counts.get("classify_calls", 0),
        "arith.chi_table_s": by_name["arith.chi_table"],
        "arith.l_one_s": by_name["arith.l_one"],
        "arith.l_one_terms": sum(s[4] for s in spans if s[0] == "arith.l_one"),
        "arith.l_one_peak_mb": trace["l_one_peak_bytes"] / 2**20,
        "stats.psi_self_s": by_name["stats.psi"],
        "stats.psi_primes": psi_primes,
        "stats.psi_ns_per_prime": per_prime_ns(by_name["stats.psi"], psi_primes),
        "stats.sweep_self_s": by_name["stats.sweep"],
        "stats.sweep_primes": sweep_primes,
        "stats.sweep_ns_per_prime": per_prime_ns(by_name["stats.sweep"], sweep_primes),
        "stats.sweep_fill_ratio": filled / sweep_primes if sweep_primes else 0.0,
        "stats.chars_s": by_name["stats.chars"],
        "classgroup.enumerate_s": by_name["classgroup.enumerate"],
        "classgroup.enumerate_calls": calls["classgroup.enumerate"],
        "classgroup.structure_s": by_name["classgroup.structure"],
        "classgroup.compose_idx_calls": counts.get("compose_idx_calls", 0),
        "qform.compose_calls": counts.get("compose_calls", 0),
        "qform.reduce_calls": counts.get("reduce_calls", 0),
        "heegner_s": by_name["heegner"],
        "cli.self_s": by_name["cli"],
        "cli.emit_s": by_name["cli.emit"],
        "cli.rows": counts.get("rows", 0),
    }
