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
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, Optional, Sequence

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

# The primes up to _TABLE_LIMIT come from a PrimeSource's table; past it,
# a request covers at most _BLOCK integers.
_BLOCK = 1 << 21
_TABLE_LIMIT = _BLOCK


class PrimeSource:
    """The primes the requests of one run_jobs call ask for.

    The primes up to _TABLE_LIMIT are slices of one table; when a request
    passes its end, the table grows to at least twice its old limit, and
    only the new part is sieved.  Past it each request sieves exactly its
    own norms, so memory stays O(sqrt(hi) + block) per request in use,
    whatever range is asked for; the last such block is kept, read-only,
    and handed out again while the same request repeats, as it does when
    every D of a scan has the same T.
    """

    def __init__(self, sieve_cap: int = arith.SIEVE_CAP_DEFAULT):
        self.cap = sieve_cap
        self.limit = 0
        self.table = np.empty(0, dtype=np.int64)
        self.last: tuple[tuple[int, int], Optional[np.ndarray]] = ((0, 0), None)

    def primes(self, lo: int, hi: int) -> np.ndarray:
        """The primes in [lo, hi], ascending: a slice of the table when hi
        is at most _TABLE_LIMIT, else sieved in one block, or the last block
        again for the same (lo, hi).  LimitTooLarge when hi is past the
        sieve cap."""
        arith.check_sieve_limit(hi, self.cap)
        if hi > _TABLE_LIMIT:
            if self.last[0] != (lo, hi):
                self.last = ((0, 0), None)  # freed before the next block is sieved
                block = arith.iter_prime_blocks(lo, hi, cap=self.cap, block=hi - lo + 1)
                primes = next(block, np.empty(0, dtype=np.int64))
                primes.flags.writeable = False
                self.last = ((lo, hi), primes)
            return self.last[1]
        if hi > self.limit:
            new = min(max(hi, 2 * self.limit), _TABLE_LIMIT, self.cap)
            more = arith.iter_prime_blocks(self.limit + 1, new, cap=self.cap, block=_BLOCK)
            self.table = np.concatenate([self.table, *more])
            self.limit = new
        i, j = np.searchsorted(self.table, [lo, hi + 1]).tolist()
        return self.table[i:j]


def _pieces(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """[lo, hi] as the norm intervals of a job's requests: its part up to
    _TABLE_LIMIT, then blocks of at most _BLOCK integers."""
    if lo <= _TABLE_LIMIT:
        yield lo, min(hi, _TABLE_LIMIT)
        lo = _TABLE_LIMIT + 1
    for start in range(lo, hi + 1, _BLOCK):
        yield start, min(start + _BLOCK - 1, hi)


# A job yields requests (g, lo, hi): the norm interval [lo, hi], one of
# _pieces, against the class group g.  It is sent, for each, (primes, chi,
# idx): the primes in [lo, hi] and, as arith.interval_classes gives them,
# chi_D(p) and a class above p, -1 for inert p; for split p the class of
# (p, b) or its inverse, which every consumer here treats alike.  Its
# return value is its result.
Job = Generator[tuple[ClassGroup, int, int], tuple[np.ndarray, np.ndarray, np.ndarray], object]

# Lattice points a round of run_jobs covers (arith.box_points), unless one
# request has more.  scan --range -2000 -3 in process (two chunks) takes
# 114, 36 and 16 rounds at 2^16, 2^18 and 2^20 points, for tracemalloc
# peaks of 6.4, 6.6 and 8.8 MiB.
_ROUND_POINTS = 1 << 18


def run_jobs(jobs: Iterable[Job], source: PrimeSource) -> list:
    """Run each job and return the results, in the order of jobs.

    Each round moves unfinished jobs on by one request each, in turn, as
    many as fit in _ROUND_POINTS lattice points of the form box over their
    norm intervals, or one larger request alone: it takes their primes
    from source and one arith.interval_classes call classifies them all.
    A round that takes every waiting request also starts the next jobs,
    while their first requests fit in it.  So the jobs in flight hold at
    most _ROUND_POINTS box forms in all (a request covers at least one
    point per form), or one job alone holds more, plus those of the last
    job started; a waiting job holds no primes.  A request past the sieve
    cap or the 2^31 prime -> class limit never reaches the call: its
    LimitTooLarge is thrown into the job and, unless the job returns a
    result for it, ends the job and is its result, like one the job
    raises itself.  The other jobs go on.
    """
    results: list = []
    asks: dict[int, tuple] = {}  # (job, g, lo, hi), in the order the jobs get their turn
    fresh = iter(jobs)

    def advance(i: int, job: Job, step, arg) -> None:
        try:
            asks[i] = (job, *step(arg))
        except StopIteration as stop:
            results[i] = stop.value
        except arith.LimitTooLarge as exc:
            results[i] = exc

    def turns() -> Iterator[int]:
        """The waiting requests in turn, then the first requests of new jobs."""
        yield from list(asks)
        for i, job in enumerate(fresh, len(results)):
            results.append(None)
            advance(i, job, job.send, None)
            if i in asks:
                yield i

    def play(live: list[int]) -> None:
        """One round: classify the primes of the requests live and send them."""
        requests = []
        for i in live:
            job, g, lo, hi = asks.pop(i)
            try:
                primes = source.primes(lo, hi)
                arith.check_prime_limit(primes, g.disc.value)
            except arith.LimitTooLarge as exc:
                advance(i, job, job.throw, exc)
                continue
            requests.append((i, job, g, primes))
        if not requests:  # every request of the round failed its limit check
            return
        classified = arith.interval_classes([(g, primes) for _, _, g, primes in requests])
        for (i, job, _, primes), chi_idx in zip(requests, classified):
            advance(i, job, job.send, (primes, *chi_idx))

    while True:
        live, points = [], 0
        for i in turns():
            _, g, lo, hi = asks[i]
            n = arith.box_points(g, lo, hi)
            if live and points + n > _ROUND_POINTS:
                break
            live.append(i)
            points += n
        if not live:
            return results
        play(live)  # so no round's arrays outlive it


def _run_one(job: Job, sieve_cap: int):
    """The result of one job run alone; the error that ended it is raised."""
    [res] = run_jobs([job], PrimeSource(sieve_cap))
    if isinstance(res, Exception):
        raise res
    return res


def psi_job(g: ClassGroup, T: float, w: Weight, sieve_cap: int) -> Job:
    """psi_by_class as a job of run_jobs: the pieces of the norms up to
    sqrt(2T), then of the segment, each added to one accumulator as it
    comes back classified.  Its limits are checked before its first
    request: T >= 2, the sieve cap at sqrt(2T) and 2T, and the 2^31 prime
    -> class limit, named by the first prime past it: in a range that
    starts below it and reaches it, sieved from 2^31; in a segment that
    starts past it, its first prime, found by arith.next_prime."""
    if T < 2:
        raise ValueError("T must be >= 2")
    hi = int(2 * T)
    sq = math.isqrt(hi)
    small, segment = (2, sq), (max(sq + 1, int(T)), hi)
    for top in (sq, hi):
        arith.check_sieve_limit(top, sieve_cap)
    lim = arith._INT64_EXACT
    for lo, top in (small, segment):
        if lo < lim <= top:  # prime gaps below 2^64 are far under 2^16
            for primes in arith.iter_prime_blocks(lim, min(top, lim + (1 << 16)), cap=sieve_cap):
                arith.check_prime_limit(primes, g.disc.value)
        elif lim <= lo <= top:  # found by a primality test: no base primes to sieve
            arith.check_prime_limit(np.array([arith.next_prime(lo)]), g.disc.value)
    acc = np.zeros(g.h)
    for lo, top in _pieces(*small):
        _psi_add_small_primes(acc, g, T, w, *(yield g, lo, top))
    for lo, top in _pieces(*segment):
        _psi_add_segment(acc, g, T, w, *(yield g, lo, top))
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
    the result is bit-identical to a per-prime loop.  A run of one psi_job,
    which checks the limits.
    """
    return _run_one(psi_job(g, T, w, sieve_cap), sieve_cap)


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


# Values per slice of the scalar math.log and math.exp maps, so that a
# part's Python numbers are never all alive at once
_MAP_SLICE = 4096


def _map_scalar(fn, x: np.ndarray) -> np.ndarray:
    """fn on each entry of x as a Python number, in slices of _MAP_SLICE."""
    out = np.empty(len(x))
    for i in range(0, len(x), _MAP_SLICE):
        part = x[i:i + _MAP_SLICE]
        out[i:i + len(part)] = np.fromiter(map(fn, part.tolist()), float, len(part))
    return out


def _weights(w: Weight, x: np.ndarray) -> np.ndarray:
    """weight_eval(w, x) for each x, bit for bit: the IEEE arithmetic in
    numpy, which rounds as Python does, and math.exp on each value."""
    if w.kind == "indicator":
        return ((1.0 <= x) & (x < 2.0)).astype(float)
    out = np.zeros(len(x))
    inside = (x > 1.0) & (x < 2.0)
    xi = x[inside]
    out[inside] = w.normalization * _map_scalar(math.exp, -1.0 / ((xi - 1.0) * (2.0 - xi)))
    return out


def _psi_add_segment(
    acc: np.ndarray, g: ClassGroup, T: float, w: Weight, primes, chis, idxs
) -> None:
    """Add the first powers of segment primes (higher powers exceed 2T)."""
    kept = chis != -1  # inert p has norm p^2 > 2T
    ps, cls = primes[kept], idxs[kept]
    lw = _map_scalar(math.log, ps) * _weights(w, ps / T)
    # row i: prime i's class, then its conjugate's; C order adds them
    # prime by prime, as a per-prime loop would.  A ramified prime's second
    # term is 0.0, as is every term of zero weight, which the loop skips:
    # adding 0.0 changes no bit of a sum that is not -0.0, and none is
    targets = np.stack([cls, g.inverse[cls]], axis=1)
    terms = np.stack([lw, lw * (chis[kept] == 1)], axis=1)
    np.add.at(acc, targets.ravel(), terms.ravel())


def psi_by_char(g: ClassGroup, psi_a: Sequence[float]) -> np.ndarray:
    """Character sums psi_chi = sum_A chi(A) psi_A, trivial character first."""
    # class A sits at its coordinates against the basis (g.position) on a
    # grid of shape g.orders(), or (1,) for the trivial group; characters
    # flatten in the same C order, the order of characters() in tests/oracles.py
    grid = np.zeros(g.h)
    grid[g.position] = psi_a
    return g.h * np.fft.ifftn(grid.reshape(g.orders() or (1,))).ravel()


def psi_from_chars(g: ClassGroup, psi_chi: Sequence[complex]) -> np.ndarray:
    """Inverse transform psi_A = (1/h) sum_chi conj(chi(A)) psi_chi."""
    grid = np.asarray(psi_chi, dtype=np.complex128).reshape(g.orders() or (1,))
    return np.fft.fftn(grid).ravel()[g.position].real / g.h


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

def sweep_job(g: ClassGroup, x_cap: float, sieve_cap: int) -> Job:
    """_least_sweep as a job of run_jobs.

    Asks for the pieces of the norms up to 16h + 64 first, that end
    doubled until it reaches |D|/4, below which the principal class holds
    no prime, then of norm intervals that double, and stops after the
    piece that fills the last class: later primes cannot improve either
    vector.  So the sieve goes only about as far as the sweep reaches,
    and it classifies the same primes as if it had started at 16h + 64.
    The norm variant differs only at the principal class, which inert
    primes reach with norm p^2.
    """
    hi = math.ceil(x_cap) - 1
    top = min(hi, sieve_cap)
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

    # the principal form's values are (2x + b y)^2/4 + |D| y^2/4: squares
    # where y = 0, at least |D|/4 elsewhere, so the principal class holds
    # no prime below |D|/4
    lo, end = 2, 16 * g.h + 64
    while 4 * end < -g.disc.value:
        end *= 2
    while lo <= top and filled < g.h:
        for a, b in _pieces(lo, min(end, top)):
            filled += take(*(yield g, a, b))
            if filled == g.h:
                break
        lo, end = end + 1, 2 * end
    least_p = [p or None for p in least.tolist()]
    least_norm = list(least_p)
    if first_inert is not None and first_inert**2 < min(x_cap, least_norm[0] or math.inf):
        least_norm[0] = first_inert**2
    return least_p, least_norm, hi > sieve_cap


def _least_sweep(
    g: ClassGroup, x_cap: float, *, sieve_cap: int = arith.SIEVE_CAP_DEFAULT
) -> tuple[list[Optional[int]], list[Optional[int]], bool]:
    """One ascending sweep over primes p < x_cap.

    Returns (least prime per class, least prime-ideal norm per class,
    capped).  A run of one sweep_job.
    """
    return _run_one(sweep_job(g, x_cap, sieve_cap), sieve_cap)


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
