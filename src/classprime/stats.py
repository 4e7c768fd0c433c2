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
from typing import NamedTuple, Optional, Sequence

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

class ClassifiedPrimes(NamedTuple):
    """Ascending primes with chi_D(p) and the class above p, as
    arith.prime_classes gives them."""

    primes: np.ndarray
    chi: np.ndarray
    idx: np.ndarray

    def part(self, sl: slice) -> "ClassifiedPrimes":
        return ClassifiedPrimes(*(a[sl] for a in self))


def _classify_parts(
    parts: list[np.ndarray], slots: Sequence[int], groups: Sequence[ClassGroup]
) -> list[ClassifiedPrimes]:
    """Classify parts[i] against groups[slots[i]], all in one
    arith.prime_classes_batch call."""
    lens = [len(part) for part in parts]
    chi, idx = arith.prime_classes_batch(np.concatenate(parts), np.repeat(slots, lens), groups)
    bounds = np.cumsum([0] + lens).tolist()
    return [
        ClassifiedPrimes(part, chi[lo:hi], idx[lo:hi])
        for part, lo, hi in zip(parts, bounds, bounds[1:])
    ]


def psi_limits(T: float) -> tuple[int, int, int]:
    """(sqrt(2T), start of the segment, 2T) as integers: psi_by_class
    needs every prime up to the first and the primes from the second to
    the third."""
    hi = int(2 * T)
    sq = math.isqrt(hi)
    return sq, max(sq + 1, int(T)), hi


def psi_by_class(
    g: ClassGroup,
    T: float,
    w: Weight,
    *,
    sieve_cap: int = arith.SIEVE_CAP_DEFAULT,
    classes: Optional[ClassifiedPrimes] = None,
) -> np.ndarray:
    """Per-class sums psi_A = sum Lambda(n) w(N(n)/T) over prime-power ideals.

    Norm support is [T, 2T]: split and ramified primes in the segment,
    plus prime powers and inert squares from primes up to sqrt(2T).
    Terms are scalar products (math.log, weight_eval) added in ascending
    prime order, a split prime's conjugate directly after it, so the result
    is bit-identical to a per-prime loop.  The primes are sieved and
    classified here one block at a time, unless `classes` already holds
    the primes of psi_limits(T), classified (scan's batches).
    """
    if T < 2:
        raise ValueError("T must be >= 2")
    sq, seg_start, hi = psi_limits(T)
    if classes is None:
        small = arith.sieve_primes(sq, cap=sieve_cap)
        small = ClassifiedPrimes(small, *arith.prime_classes(small, g))
        segment = (
            ClassifiedPrimes(block, *arith.prime_classes(block, g))
            for block in arith.iter_prime_blocks(seg_start, hi, cap=sieve_cap)
        )
    else:
        cut = int(np.searchsorted(classes.primes, sq, side="right"))
        small, segment = classes.part(slice(cut)), [classes.part(slice(cut, None))]
    acc = np.array(_psi_small_primes(g, T, w, small))
    for part in segment:
        _psi_add_segment(acc, g, T, w, part)
    return acc


def _psi_cuts(T: float, primes: np.ndarray) -> tuple[int, int, int]:
    """Indices i <= j <= k with primes[:i] and primes[j:k] the primes of
    psi_limits(T), for an ascending table of primes reaching 2T."""
    sq, seg_start, hi = psi_limits(T)
    i, j, k = np.searchsorted(primes, [sq + 1, seg_start, hi + 1]).tolist()
    return i, j, k


def psi_prime_count(T: float, primes: np.ndarray) -> int:
    """How many primes psi_by_class reads at T, counted on a table."""
    i, j, k = _psi_cuts(T, primes)
    return i + k - j


def psi_classes(
    groups: Sequence[ClassGroup], ts: Sequence[float], primes: np.ndarray
) -> list[ClassifiedPrimes]:
    """The primes psi_by_class(groups[i], ts[i]) reads, taken from one
    ascending table of primes that reaches every 2T and classified by one
    prime_classes_batch call; each entry is that psi_by_class's `classes`."""
    parts = []
    for T in ts:
        i, j, k = _psi_cuts(T, primes)
        parts.append(np.concatenate([primes[:i], primes[j:k]]))
    return _classify_parts(parts, range(len(parts)), groups)


def _psi_small_primes(g: ClassGroup, T: float, w: Weight, small: ClassifiedPrimes) -> list[float]:
    """psi_A over all prime powers of norm up to 2T from primes p <= sqrt(2T).

    A prime power's class is looked up only where its weight is nonzero.
    """
    out = [0.0] * g.h
    logf = math.log
    hi = int(2 * T)
    for p, chi, c in zip(small.primes.tolist(), small.chi.tolist(), small.idx.tolist()):
        if chi == -1:
            lam = 2.0 * logf(p)
            n = p * p
            while n <= hi:
                wv = weight_eval(w, n / T)
                if wv:
                    out[0] += lam * wv
                n *= p * p
            continue
        lam = logf(p)
        ci = g.inverse_idx(c) if chi == 1 else c
        n, k = p, 1
        while n <= hi:
            wv = weight_eval(w, n / T)
            if wv:
                out[g.power_idx(c, k)] += lam * wv
                if chi == 1:
                    # the conjugate prime-power ideal, possibly in the same class
                    out[g.power_idx(ci, k)] += lam * wv
            n *= p
            k += 1
    return out


def _psi_add_segment(
    acc: np.ndarray, g: ClassGroup, T: float, w: Weight, seg: ClassifiedPrimes
) -> None:
    """Add the first powers of segment primes (higher powers exceed 2T)."""
    logf = math.log
    kept = seg.chi != -1  # inert p has norm p^2 > 2T
    ps, cls, split = seg.primes[kept], seg.idx[kept], seg.chi[kept] == 1
    lw = np.array([logf(p) * weight_eval(w, p / T) for p in ps.tolist()])
    # row i: prime i's class, then its conjugate's; C order adds them
    # prime by prime, as a per-prime loop would
    targets = np.stack([cls, g.inverse[cls]], axis=1)
    nz = lw != 0.0
    add = np.stack([nz, nz & split], axis=1)
    np.add.at(acc, targets[add], np.stack([lw, lw], axis=1)[add])


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
    classes: Optional[ClassifiedPrimes] = None,
) -> PsiReport:
    """psi sums plus the variance, computed both ways and cross-checked.

    Definitional: sum_A |psi_A - psi/h|^2.  Spectral: (1/h) * sum over
    nontrivial chi of |psi_chi|^2.  Disagreement beyond 1e-9 relative
    raises IdentityMismatch, as does a failed Fourier roundtrip.
    `classes` goes to psi_by_class.
    """
    psa = psi_by_class(g, T, w, sieve_cap=sieve_cap, classes=classes)
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

class _LeastPrimes:
    """Least prime per class of one group, filled from ascending slices of
    classified primes.  The norm variant differs only at the principal
    class, which inert primes reach with norm p^2."""

    def __init__(self, g: ClassGroup):
        self.g = g
        self.least = np.zeros(g.h, dtype=np.int64)  # 0: no prime found yet
        self.filled = 0
        self.first_inert: Optional[int] = None

    @property
    def done(self) -> bool:
        return self.filled == self.g.h

    def add(self, part: ClassifiedPrimes) -> None:
        """Take the next slice.  Once every class has a prime (done), later
        primes cannot improve either vector."""
        primes, chis, idxs = part
        if self.first_inert is None:
            inert = np.flatnonzero(chis == -1)
            if inert.size:
                self.first_inert = int(primes[inert[0]])
        kept, split = chis != -1, chis == 1
        cls = np.concatenate([idxs[kept], self.g.inverse[idxs[split]]])
        none = np.iinfo(np.int64).max
        first = np.full(self.g.h, none, dtype=np.int64)
        np.minimum.at(first, cls, np.concatenate([primes[kept], primes[split]]))
        new = (self.least == 0) & (first < none)
        self.least[new] = first[new]
        self.filled += int(np.count_nonzero(new))

    def result(self, x_cap: float) -> tuple[list[Optional[int]], list[Optional[int]]]:
        """(least prime per class, least prime-ideal norm per class)."""
        least_p = [p or None for p in self.least.tolist()]
        least_norm = list(least_p)
        fi = self.first_inert
        if fi is not None and fi * fi < x_cap:
            if least_norm[0] is None or fi * fi < least_norm[0]:
                least_norm[0] = fi * fi
        return least_p, least_norm


def _sweep_limit(x_cap: float, sieve_cap: int) -> tuple[int, bool]:
    """(largest prime a sweep below x_cap reads, whether sieve_cap cut it)."""
    hi = math.ceil(x_cap) - 1
    return min(hi, sieve_cap), hi > sieve_cap


def _first_slice(g: ClassGroup) -> int:
    """Primes in a group's first sweep slice; each later slice doubles."""
    return 8 * g.h


def _least_sweep(
    g: ClassGroup, x_cap: float, *, sieve_cap: int = arith.SIEVE_CAP_DEFAULT
) -> tuple[list[Optional[int]], list[Optional[int]], bool]:
    """One ascending sweep over primes p < x_cap.

    Returns (least prime per class, least prime-ideal norm per class,
    capped).  Each sieve block is classified in slices of 8h primes,
    doubling, and the sweep stops after the slice that fills the last
    class.
    """
    st = _LeastPrimes(g)
    hi, capped = _sweep_limit(x_cap, sieve_cap)
    n = _first_slice(g)
    if hi >= 2:
        for block in arith.iter_prime_blocks(2, hi, cap=sieve_cap):
            lo = 0
            while lo < len(block) and not st.done:
                part = block[lo : lo + n]
                st.add(ClassifiedPrimes(part, *arith.prime_classes(part, g)))
                lo, n = lo + n, 2 * n
            if st.done:
                break
    return (*st.result(x_cap), capped)


def least_sweeps(
    groups: Sequence[ClassGroup],
    x_caps: Sequence[float],
    primes: np.ndarray,
    limit: int,
    *,
    sieve_cap: int = arith.SIEVE_CAP_DEFAULT,
) -> list[Optional[tuple[list[Optional[int]], list[Optional[int]]]]]:
    """_least_sweep for many groups over one table of the primes up to limit.

    Runs in rounds: each group whose sweep is not over gets its next slice
    of the table (8h primes, doubling), and one prime_classes_batch call
    classifies the slices of all of them.  Returns (least primes, least
    norms) per group, or None for a group still unfilled at the end of
    the table that x_cap and sieve_cap let read further; the caller
    sweeps that one alone.
    """
    states = [_LeastPrimes(g) for g in groups]
    his = [_sweep_limit(x, sieve_cap)[0] for x in x_caps]
    ends = np.searchsorted(primes, his, side="right").tolist()
    starts = [0] * len(groups)
    sizes = [_first_slice(g) for g in groups]
    active = [i for i, e in enumerate(ends) if e > 0]
    while active:
        parts = [primes[starts[i] : min(starts[i] + sizes[i], ends[i])] for i in active]
        for i, part in zip(active, _classify_parts(parts, active, groups)):
            states[i].add(part)
            starts[i] += len(part.primes)
            sizes[i] *= 2
        active = [i for i in active if not states[i].done and starts[i] < ends[i]]
    return [
        st.result(x) if st.done or hi <= limit else None
        for st, x, hi in zip(states, x_caps, his)
    ]


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
