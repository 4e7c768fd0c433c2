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
from typing import Optional, Sequence

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

def psi_by_class(
    g: ClassGroup, T: float, w: Weight, *, sieve_cap: int = arith.SIEVE_CAP_DEFAULT
) -> np.ndarray:
    """Per-class sums psi_A = sum Lambda(n) w(N(n)/T) over prime-power ideals.

    Norm support is [T, 2T]: split and ramified primes in the segment,
    plus prime powers and inert squares from primes up to sqrt(2T).
    Terms are scalar products (math.log, weight_eval) added in ascending
    prime order, a split prime's conjugate directly after it, so the result
    is bit-identical to a per-prime loop.
    """
    if T < 2:
        raise ValueError("T must be >= 2")
    h = g.h
    out = [0.0] * h
    logf = math.log
    hi = int(2 * T)
    sq = math.isqrt(hi)

    # small primes: all prime powers with norm up to 2T
    small = arith.sieve_primes(sq, cap=sieve_cap)
    chis, idxs = arith.prime_classes(small, g)
    for p, chi, c in zip(small.tolist(), chis.tolist(), idxs.tolist()):
        if chi == -1:
            lam = 2.0 * logf(p)
            n = p * p
            while n <= hi:
                wv = weight_eval(w, n / T)
                if wv:
                    out[0] += lam * wv
                n *= p * p
        elif chi == 0:
            lam = logf(p)
            n, cur = p, c
            while n <= hi:
                wv = weight_eval(w, n / T)
                if wv:
                    out[cur] += lam * wv
                n *= p
                cur = g.compose_idx(cur, c)
        else:
            lam = logf(p)
            ci = g.inverse_idx(c)
            n, cur, curi = p, c, ci
            while n <= hi:
                wv = weight_eval(w, n / T)
                if wv:
                    # two conjugate prime-power ideals, possibly same class
                    out[cur] += lam * wv
                    out[curi] += lam * wv
                n *= p
                cur = g.compose_idx(cur, c)
                curi = g.compose_idx(curi, ci)

    # segment primes: first powers only (higher powers exceed 2T here)
    acc = np.array(out)
    seg_start = max(sq + 1, int(T))
    for block in arith.iter_prime_blocks(seg_start, hi, cap=sieve_cap):
        chis, idxs = arith.prime_classes(block, g)
        kept = chis != -1  # inert p has norm p^2 > 2T
        ps, cls, split = block[kept], idxs[kept], chis[kept] == 1
        lw = np.array([logf(p) * weight_eval(w, p / T) for p in ps.tolist()])
        # row i: prime i's class, then its conjugate's; C order adds them
        # prime by prime, as a per-prime loop would
        targets = np.stack([cls, g.inverse[cls]], axis=1)
        nz = lw != 0.0
        add = np.stack([nz, nz & split], axis=1)
        np.add.at(acc, targets[add], np.stack([lw, lw], axis=1)[add])
    return acc


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
    g: ClassGroup, T: float, w: Weight, *, sieve_cap: int = arith.SIEVE_CAP_DEFAULT
) -> PsiReport:
    """psi sums plus the variance, computed both ways and cross-checked.

    Definitional: sum_A |psi_A - psi/h|^2.  Spectral: (1/h) * sum over
    nontrivial chi of |psi_chi|^2.  Disagreement beyond 1e-9 relative
    raises IdentityMismatch, as does a failed Fourier roundtrip.
    """
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

def _least_sweep(
    g: ClassGroup, x_cap: float, *, sieve_cap: int = arith.SIEVE_CAP_DEFAULT
) -> tuple[list[Optional[int]], list[Optional[int]], bool]:
    """One ascending sweep over primes p < x_cap.

    Returns (least prime per class, least prime-ideal norm per class,
    capped).  The norm variant differs only at the principal class,
    which inert primes reach with norm p^2.  Stops as soon as every
    class is filled; later primes cannot improve either vector.
    """
    h = g.h
    least = np.zeros(h, dtype=np.int64)  # 0: no prime found yet
    filled = 0
    first_inert: Optional[int] = None
    hi = math.ceil(x_cap) - 1
    capped = hi > sieve_cap
    hi = min(hi, sieve_cap)
    if hi >= 2:
        for block in arith.iter_prime_blocks(2, hi, cap=max(sieve_cap, hi)):
            chis, idxs = arith.prime_classes(block, g)
            if first_inert is None:
                inert = np.flatnonzero(chis == -1)
                if inert.size:
                    first_inert = int(block[inert[0]])
            kept, split = chis != -1, chis == 1
            cls = np.concatenate([idxs[kept], g.inverse[idxs[split]]])
            first = np.full(h, hi + 1, dtype=np.int64)
            np.minimum.at(first, cls, np.concatenate([block[kept], block[split]]))
            new = (least == 0) & (first <= hi)
            least[new] = first[new]
            filled += int(np.count_nonzero(new))
            if filled == h:
                break
    least_p = [p or None for p in least.tolist()]
    least_norm = list(least_p)
    if first_inert is not None and first_inert * first_inert < x_cap:
        sq = first_inert * first_inert
        if least_norm[0] is None or sq < least_norm[0]:
            least_norm[0] = sq
    return least_p, least_norm, capped


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
