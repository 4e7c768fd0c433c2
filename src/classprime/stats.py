"""Distribution of prime ideals among ideal classes.

Weighted per-class sums psi_A over prime-power ideal norms in [T, 2T],
their character transform psi_chi, the variance across classes computed
two independent ways (definitional and spectral, which must agree to
1e-9), least representable primes per class, and exceptional-class
counts at a threshold.
"""
from __future__ import annotations

import math
import statistics
import weakref
from dataclasses import dataclass
from typing import Generator, Iterator, Optional, Sequence

import numpy as np

from . import arith
from .classgroup import ClassGroup
from .qform import InvariantViolation


class IdentityMismatch(InvariantViolation):
    """The definitional and spectral variance routes disagree."""


# ---------------------------------------------------------------------------
# weights on [1, 2]

@dataclass(frozen=True)
class Weight:
    kind: str  # "bump" | "indicator"
    normalization: float

    def __call__(self, x: float) -> float:
        return weight_eval(self, x)


# 1 / integral of exp(-1/((x-1)(2-x))) over (1, 2); tests recompute it
# with mpmath
_BUMP_NORM = 142.25037577709585


def bump_weight() -> Weight:
    """Smooth bump c*exp(-1/((x-1)(2-x))) on (1,2), normalized to integral 1."""
    return Weight("bump", _BUMP_NORM)


def indicator_weight() -> Weight:
    return Weight("indicator", 1.0)


def get_weight(kind: str) -> Weight:
    if kind == "bump":
        return bump_weight()
    if kind == "indicator":
        return indicator_weight()
    raise ValueError(f"unknown weight kind {kind!r}")


def weight_eval(w: Weight, x: float) -> float:
    if w.kind == "indicator":
        return 1.0 if 1.0 <= x < 2.0 else 0.0
    if x <= 1.0 or x >= 2.0:
        return 0.0
    return w.normalization * math.exp(-1.0 / ((x - 1.0) * (2.0 - x)))


# ---------------------------------------------------------------------------
# psi sums

# Norms per PrimeSource block: its primes up to _TABLE_LIMIT come from its
# table; past it, from sieve blocks of _BLOCK integers.
_BLOCK = 1 << 21
_TABLE_LIMIT = _BLOCK
_NO_PRIMES = np.empty(0, dtype=np.int64)


class PrimeSource:
    """The primes the jobs of run_jobs ask for, shared by every job of a
    run (scan keeps one for its whole range).

    The primes up to _TABLE_LIMIT are slices of one table; when a request
    passes its end, the table grows to at least twice its old limit, and
    only the new part is sieved.  Past it the integers fall into fixed
    blocks of _BLOCK; jobs reading a block share one copy of its primes,
    sieved once while any of them holds a slice of it.  So memory stays
    O(sqrt(hi) + block) per block in use, whatever range is asked for.
    """

    def __init__(self, sieve_cap: int = arith.SIEVE_CAP_DEFAULT):
        self.cap = sieve_cap
        self.limit = 0
        self.table = np.empty(0, dtype=np.int64)
        self.blocks: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def _tabled(self, lo: int, hi: int) -> np.ndarray:
        """The primes in [lo, min(hi, _TABLE_LIMIT)], from the table."""
        top = min(hi, _TABLE_LIMIT)
        if lo <= top and top > self.limit:
            new = min(max(top, 2 * self.limit), _TABLE_LIMIT, self.cap)
            more = arith.iter_prime_blocks(self.limit + 1, new, cap=self.cap, block=_BLOCK)
            self.table = np.concatenate([self.table, *more])
            self.limit = new
        i, j = np.searchsorted(self.table, [lo, top + 1]).tolist()
        return self.table[i:j]

    def parts(self, lo: int, hi: int) -> Iterator[np.ndarray]:
        """The primes in [lo, hi] as nonempty ascending arrays: up to
        _TABLE_LIMIT one slice of the table, then one slice per sieve
        block.  LimitTooLarge when hi is past the sieve cap."""
        arith.check_sieve_limit(hi, self.cap)
        if lo <= _TABLE_LIMIT:
            primes = self._tabled(lo, hi)
            if len(primes):
                yield primes
        size, first = _BLOCK, _TABLE_LIMIT + 1
        for start in range(first + max(0, lo - first) // size * size, hi + 1, size):
            block = self.blocks.get(start)
            if block is None:
                stop = min(start + size - 1, self.cap)
                block = next(
                    arith.iter_prime_blocks(start, stop, cap=self.cap, block=size), _NO_PRIMES
                )
                self.blocks[start] = block
            i, j = np.searchsorted(block, [lo, hi + 1]).tolist()
            if i < j:
                yield block[i:j]


# A job yields nonempty ascending prime arrays and is sent, for each,
# (chi, idx) as arith.interval_classes gives them against its group:
# chi_D(p) and a class above p, -1 for inert p; for split p the class of
# (p, b) or its inverse, which every consumer here treats alike.  Its
# return value is its result.
Job = Generator[np.ndarray, tuple[np.ndarray, np.ndarray], object]

# Lattice points a round of run_jobs covers (arith.box_points), unless one
# request has more.  Only jobs that share a run share rounds, as scan's
# batches do: scan --range -2000 -3 takes 96 rounds at 2^18 (336 at 2^16)
# for a tracemalloc peak of 4.4 MiB (7.9 MiB at 2^20).
_ROUND_POINTS = 1 << 18


def run_jobs(jobs: Sequence[tuple[ClassGroup, Job]]) -> list:
    """Run each (group, job) and return the results.

    Each round moves unfinished jobs on by one request each, in turn, as
    many as fit in _ROUND_POINTS lattice points of the form box over the
    norms from each request's first prime to its last, or one larger
    request alone: one arith.interval_classes call classifies the primes
    of all of them.  A request whose prime or |D| is past the 2^31 prime
    -> class limit never reaches it: the LimitTooLarge naming its D, like
    one the job raises itself, ends that job and is its result, and the
    other jobs go on.
    """
    results: list = [None] * len(jobs)
    asks: dict[int, np.ndarray] = {}  # in the order the jobs get their turn

    def advance(i: int, classified: Optional[tuple[np.ndarray, np.ndarray]]) -> None:
        g, job = jobs[i]
        try:
            primes = job.send(classified)
            arith.check_prime_limit(primes, g.disc.value)
            asks[i] = primes
        except StopIteration as stop:
            results[i] = stop.value
        except arith.LimitTooLarge as exc:
            job.close()
            results[i] = exc

    for i in range(len(jobs)):
        advance(i, None)
    while asks:
        live, total = [], 0
        for i, primes in asks.items():
            n = arith.box_points(jobs[i][0], primes[0], primes[-1])
            if live and total + n > _ROUND_POINTS:
                break
            live.append(i)
            total += n
        classified = arith.interval_classes([(jobs[i][0], asks.pop(i)) for i in live])
        for i, chi_idx in zip(live, classified):
            advance(i, chi_idx)
        del classified, chi_idx  # so no round's arrays outlive it
    return results


def _run_one(g: ClassGroup, job: Job):
    """The result of one job run alone; the error that ended it is raised."""
    [res] = run_jobs([(g, job)])
    if isinstance(res, Exception):
        raise res
    return res


def psi_limits(T: float) -> tuple[int, int, int]:
    """(sqrt(2T), start of the segment, 2T) as integers: psi_by_class
    needs every prime up to the first and the primes from the second to
    the third."""
    hi = int(2 * T)
    sq = math.isqrt(hi)
    return sq, max(sq + 1, int(T)), hi


def psi_job(g: ClassGroup, T: float, w: Weight, source: PrimeSource) -> Job:
    """psi_by_class as a job of run_jobs: the source's parts of the norms
    up to sqrt(2T), then of the segment, each added to one accumulator as
    it comes back classified."""
    if T < 2:
        raise ValueError("T must be >= 2")
    sq, seg_start, hi = psi_limits(T)
    acc = np.zeros(g.h)
    for primes in source.parts(2, sq):
        _psi_add_small_primes(acc, g, T, w, primes, *(yield primes))
    for primes in source.parts(seg_start, hi):
        _psi_add_segment(acc, g, T, w, primes, *(yield primes))
    return acc


def psi_by_class(
    g: ClassGroup, T: float, w: Weight, *, sieve_cap: int = arith.SIEVE_CAP_DEFAULT
) -> np.ndarray:
    """Per-class sums psi_A = sum Lambda(n) w(N(n)/T) over prime-power ideals.

    Norm support is [T, 2T]: split and ramified primes in the segment,
    plus prime powers and inert squares from primes up to sqrt(2T).
    Terms are products of math.log and weight_eval's value (math.exp on
    each prime, the rest in numpy, which rounds the same), added in
    ascending prime order, a split prime's conjugate directly after it, so
    the result is bit-identical to a per-prime loop.  A run of one psi_job.
    """
    return _run_one(g, psi_job(g, T, w, PrimeSource(sieve_cap)))


def _psi_add_small_primes(
    acc: np.ndarray, g: ClassGroup, T: float, w: Weight, primes, chis, idxs
) -> None:
    """Add to acc the terms of every prime power of norm up to 2T over the
    primes p <= sqrt(2T) given, in ascending p.

    A prime power's class is looked up only where its weight is nonzero.
    """
    logf = math.log
    hi = int(2 * T)
    for p, chi, c in zip(primes.tolist(), chis.tolist(), idxs.tolist()):
        if chi == -1:
            lam = 2.0 * logf(p)
            n = p * p
            while n <= hi:
                wv = weight_eval(w, n / T)
                if wv:
                    acc[0] += lam * wv
                n *= p * p
            continue
        lam = logf(p)
        ci = g.inverse_idx(c) if chi == 1 else c
        n, k = p, 1
        while n <= hi:
            wv = weight_eval(w, n / T)
            if wv:
                acc[g.power_idx(c, k)] += lam * wv
                if chi == 1:
                    # the conjugate prime-power ideal, possibly in the same class
                    acc[g.power_idx(ci, k)] += lam * wv
            n *= p
            k += 1


def _weights(w: Weight, x: np.ndarray) -> np.ndarray:
    """weight_eval(w, x) for each x, bit for bit: the IEEE arithmetic in
    numpy, which rounds as Python does, and math.exp on each value."""
    if w.kind == "indicator":
        return ((1.0 <= x) & (x < 2.0)).astype(float)
    out = np.zeros(len(x))
    inside = (x > 1.0) & (x < 2.0)
    xi = x[inside]
    arg = -1.0 / ((xi - 1.0) * (2.0 - xi))
    out[inside] = w.normalization * np.fromiter(map(math.exp, arg.tolist()), float, len(arg))
    return out


def _psi_add_segment(
    acc: np.ndarray, g: ClassGroup, T: float, w: Weight, primes, chis, idxs
) -> None:
    """Add the first powers of segment primes (higher powers exceed 2T)."""
    kept = chis != -1  # inert p has norm p^2 > 2T
    ps, cls = primes[kept], idxs[kept]
    logs = np.fromiter(map(math.log, ps.tolist()), float, len(ps))
    lw = logs * _weights(w, ps / T)
    # row i: prime i's class, then its conjugate's; C order adds them
    # prime by prime, as a per-prime loop would.  A ramified prime's second
    # term is 0.0, as is every term of zero weight, which the loop skips:
    # adding 0.0 changes no bit of a sum that is not -0.0, and none is
    targets = np.stack([cls, g.inverse[cls]], axis=1)
    terms = np.stack([lw, lw * (chis[kept] == 1)], axis=1)
    np.add.at(acc, targets.ravel(), terms.ravel())


def _char_grid(g: ClassGroup) -> tuple[tuple[int, ...], np.ndarray]:
    """Shape of the character grid and each class's C-order position on it.

    Class A sits at its coordinates against the basis (g.position), so the
    grid has shape g.orders(), or (1,) for the trivial group; characters
    flatten in the same C order, which is the order of
    classgroup.characters().
    """
    return g.orders() or (1,), g.position


def psi_by_char(g: ClassGroup, psi_a: Sequence[float]) -> np.ndarray:
    """Character sums psi_chi = sum_A chi(A) psi_A, trivial character first."""
    shape, pos = _char_grid(g)
    grid = np.zeros(g.h)
    grid[pos] = psi_a
    return g.h * np.fft.ifftn(grid.reshape(shape)).ravel()


def psi_from_chars(g: ClassGroup, psi_chi: Sequence[complex]) -> np.ndarray:
    """Inverse transform psi_A = (1/h) sum_chi conj(chi(A)) psi_chi."""
    shape, pos = _char_grid(g)
    grid = np.asarray(psi_chi, dtype=np.complex128).reshape(shape)
    return np.fft.fftn(grid).ravel()[pos].real / g.h


@dataclass
class PsiReport:
    disc: int
    t: float
    weight: str
    psi_by_class: np.ndarray
    psi_by_char: np.ndarray
    psi_total: float
    variance: float
    variance_spectral: float
    delta_main_term: float
    roundtrip_error: float


def _rel_diff(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    if scale == 0:
        return 0.0
    return abs(x - y) / scale


def variance_report(
    g: ClassGroup,
    T: float,
    w: Weight,
    *,
    sieve_cap: int = arith.SIEVE_CAP_DEFAULT,
    psa: Optional[np.ndarray] = None,
) -> PsiReport:
    """psi sums plus the variance, computed both ways and cross-checked.

    Definitional: sum_A |psi_A - psi/h|^2.  Spectral: (1/h) * sum over
    nontrivial chi of |psi_chi|^2.  Disagreement beyond 1e-9 relative
    raises IdentityMismatch, as does a failed Fourier roundtrip.  psa,
    when given, is psi_by_class(g, T, w), already computed.
    """
    if psa is None:
        psa = psi_by_class(g, T, w, sieve_cap=sieve_cap)
    ptot = float(psa.sum())
    h = g.h

    psi_chi = psi_by_char(g, psa)
    recon = psi_from_chars(g, psi_chi)

    var_def = float(np.sum((psa - ptot / h) ** 2))
    var_spectral = float(np.sum(np.abs(psi_chi[1:]) ** 2) / h)
    if _rel_diff(var_def, var_spectral) > 1e-9:
        raise IdentityMismatch(
            f"variance mismatch: definitional {var_def!r} vs spectral {var_spectral!r}"
        )
    if abs(complex(psi_chi[0]) - ptot) > 1e-9 * max(1.0, abs(ptot)):
        raise IdentityMismatch("trivial character sum differs from psi_total")
    rt = float(np.max(np.abs(recon - psa))) if h else 0.0
    if rt > 1e-9 * max(1.0, float(np.max(np.abs(psa))) if h else 1.0):
        raise IdentityMismatch(f"Fourier roundtrip error {rt}")

    return PsiReport(
        disc=g.disc.value,
        t=T,
        weight=w.kind,
        psi_by_class=psa,
        psi_by_char=psi_chi,
        psi_total=ptot,
        variance=var_def,
        variance_spectral=var_spectral,
        delta_main_term=ptot - T,
        roundtrip_error=rt,
    )


def variance(g: ClassGroup, T: float, w: Weight, **kw) -> float:
    """Cross-class variance of the weighted prime sums (definitional value)."""
    return variance_report(g, T, w, **kw).variance


# ---------------------------------------------------------------------------
# least primes and exceptional classes

def sweep_job(g: ClassGroup, x_cap: float, source: PrimeSource) -> Job:
    """_least_sweep as a job of run_jobs.

    Asks for the source's parts of the norms up to 16h + 64 first, then
    of norm intervals that double, and stops after the part that fills
    the last class: later primes cannot improve either vector.  So the
    source sieves only about as far as the sweep reaches.  The norm
    variant differs only at the principal class, which inert primes reach
    with norm p^2.
    """
    hi = math.ceil(x_cap) - 1
    top = min(hi, source.cap)
    least = np.zeros(g.h, dtype=np.int64)  # 0: no prime found yet
    filled, first_inert = 0, None
    none = np.iinfo(np.int64).max

    def take(primes: np.ndarray, chis: np.ndarray, idxs: np.ndarray) -> int:
        """Fill the classes that primes reach first; how many they filled."""
        nonlocal first_inert
        if first_inert is None:
            inert = np.flatnonzero(chis == -1)
            if inert.size:
                first_inert = int(primes[inert[0]])
        kept, split = chis != -1, chis == 1
        cls = np.concatenate([idxs[kept], g.inverse[idxs[split]]])
        first = np.full(g.h, none, dtype=np.int64)
        np.minimum.at(first, cls, np.concatenate([primes[kept], primes[split]]))
        new = (least == 0) & (first < none)
        least[new] = first[new]
        return int(np.count_nonzero(new))

    lo, end = 2, 16 * g.h + 64
    while lo <= top and filled < g.h:
        for primes in source.parts(lo, min(end, top)):
            filled += take(primes, *(yield primes))
            if filled == g.h:
                break
        lo, end = end + 1, 2 * end
    least_p = [p or None for p in least.tolist()]
    least_norm = list(least_p)
    if first_inert is not None and first_inert**2 < min(x_cap, least_norm[0] or math.inf):
        least_norm[0] = first_inert**2
    return least_p, least_norm, hi > source.cap


def _least_sweep(
    g: ClassGroup, x_cap: float, *, sieve_cap: int = arith.SIEVE_CAP_DEFAULT
) -> tuple[list[Optional[int]], list[Optional[int]], bool]:
    """One ascending sweep over primes p < x_cap.

    Returns (least prime per class, least prime-ideal norm per class,
    capped).  A run of one sweep_job.
    """
    return _run_one(g, sweep_job(g, x_cap, PrimeSource(sieve_cap)))


def least_primes(g: ClassGroup, x_cap: float, **kw) -> list[Optional[int]]:
    """Smallest prime 1 < p < x_cap represented by each class (None if capped out)."""
    return _least_sweep(g, x_cap, **kw)[0]


def least_prime_ideal_norms(g: ClassGroup, x_cap: float, **kw) -> list[Optional[int]]:
    """Smallest prime-ideal norm in (1, x_cap) per class; inert squares count."""
    return _least_sweep(g, x_cap, **kw)[1]


def least_prime_summary(least: Sequence[Optional[int]]) -> tuple[Optional[int], Optional[float]]:
    """(max, median) of the least primes present; the max only once every class has one."""
    present = [p for p in least if p is not None]
    top = max(present) if len(present) == len(least) else None
    return top, (statistics.median(present) if present else None)


def count_exceptional(vec: Sequence[Optional[int]], x: float) -> int:
    """Classes whose least entry is missing or >= x (entries came from a sweep capped at >= x)."""
    return sum(1 for v in vec if v is None or v >= x)


def exceptional_count(g: ClassGroup, x: float, **kw) -> int:
    """R(D, X): classes containing no prime ideal of norm in (1, X)."""
    return count_exceptional(least_prime_ideal_norms(g, x, **kw), x)


def exceptional_count_primes(g: ClassGroup, x: float, **kw) -> int:
    """Rational-prime variant: classes representing no prime 1 < p < X."""
    return count_exceptional(least_primes(g, x, **kw), x)
