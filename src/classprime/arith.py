"""Rational-prime arithmetic against a fixed negative discriminant.

Kronecker symbol, segmented prime sieve, classification of primes as
split / inert / ramified with the classes of the primes above them,
brute-force representation counts, the character divisor-sum formula
they must match, and partial sums of L(1, chi_D).
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .classgroup import ClassGroup, enumerate_reduced_forms, ideal_class_of
from .qform import Discriminant, QuadForm, validate_discriminant

SIEVE_CAP_DEFAULT = 10**9
_BLOCK = 1 << 20


class LimitTooLarge(ValueError):
    """Requested sieve limit exceeds the configured cap."""


def unit_count(d: int) -> int:
    """Number of units w_D: 6 for D = -3, 4 for D = -4, else 2."""
    if d == -3:
        return 6
    if d == -4:
        return 4
    return 2


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n >= 0."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    if d % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t % 2 == 1 and d % 8 in (3, 5):
        result = -result
    a = d % n  # Jacobi symbol is periodic in the numerator for odd n > 0
    while a != 0:
        t = 0
        while a % 2 == 0:
            a //= 2
            t += 1
        if t % 2 == 1 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# sieve

def _simple_sieve(limit: int) -> np.ndarray:
    """Primes <= limit by a plain odd-only sieve (used for base primes)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_c = np.zeros(limit + 1, dtype=bool)
    is_c[:2] = True
    for p in range(3, math.isqrt(limit) + 1, 2):
        if not is_c[p]:
            is_c[p * p :: 2 * p] = True
    out = np.flatnonzero(~is_c).astype(np.int64)
    return out[(out == 2) | (out % 2 == 1)]


def iter_prime_blocks(
    lo: int, hi: int, *, cap: int = SIEVE_CAP_DEFAULT, block: int = _BLOCK
) -> Iterator[np.ndarray]:
    """Yield primes in [lo, hi] in ascending blocks; memory stays O(sqrt(hi) + block)."""
    if hi > cap:
        raise LimitTooLarge(f"sieve limit {hi} exceeds cap {cap}")
    lo = max(lo, 2)
    if hi < lo:
        return
    base = _simple_sieve(math.isqrt(hi))
    start = lo
    while start <= hi:
        stop = min(start + block - 1, hi)
        seg = np.ones(stop - start + 1, dtype=bool)
        if start <= 1:
            seg[: 2 - start] = False
        for p in base.tolist():
            if p * p > stop:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            seg[first - start :: p] = False
        primes = np.flatnonzero(seg).astype(np.int64) + start
        if len(primes):
            yield primes
        start = stop + 1


def sieve_primes(limit: int, *, cap: int = SIEVE_CAP_DEFAULT) -> np.ndarray:
    """All primes <= limit, ascending."""
    if limit > cap:
        raise LimitTooLarge(f"sieve limit {limit} exceeds cap {cap}")
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit <= _BLOCK:
        return _simple_sieve(limit)
    return np.concatenate(list(iter_prime_blocks(2, limit, cap=cap)))


# ---------------------------------------------------------------------------
# square roots of D modulo primes

def sqrt_mod_prime(a: int, p: int) -> Optional[int]:
    """A square root of a mod odd prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    return _sqrt_residue(a, p)


def _sqrt_residue(a: int, p: int) -> int:
    # assumes 0 < a < p is a quadratic residue mod odd p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2  # deterministic: smallest quadratic non-residue
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, x = 0, t
        while x != 1:
            x = x * x % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def sqrt_disc_mod_4p(d: int, p: int) -> Optional[int]:
    """Smallest b >= 0 with b^2 = d (mod 4p) and b = d (mod 2), or None."""
    if p == 2:
        for b in (0, 1, 2, 3):
            if (b - d) % 2 == 0 and (b * b - d) % 8 == 0:
                return b
        return None
    r = sqrt_mod_prime(d % p, p)
    if r is None:
        return None
    return r if (r - d) % 2 == 0 else p - r


# ---------------------------------------------------------------------------
# classification of primes

@dataclass(frozen=True)
class PrimeClassification:
    p: int
    kind: str  # "split" | "inert" | "ramified"
    sqrt_b: Optional[int]
    class_index: Optional[int]  # class of the form (p, b, .)
    classes: frozenset[int]


def prime_classes(primes, g: ClassGroup) -> tuple[np.ndarray, np.ndarray]:
    """chi_D(p) and the class of the ideal (p, b) above p, for each prime p.

    Returns (chi, idx) aligned with `primes`; idx is -1 for inert p.  For
    split p the conjugate ideal lies in the inverse class.  b is the square
    root of D mod 4p with b = D (mod 2), by Tonelli-Shanks (Cohen, A Course
    in Computational Algebraic Number Theory, section 1.5).  Raises
    InvalidIdealBasis when the ideal above p is not invertible, which
    happens only at primes dividing the conductor of a non-fundamental D.
    """
    d = g.disc.value
    chis: list[int] = []
    idxs: list[int] = []
    for p in np.asarray(primes, dtype=np.int64).tolist():
        r = d % p
        if r == 0 or p == 2:
            chi = kronecker(d, p)
            b = sqrt_disc_mod_4p(d, p)
        elif pow(r, (p - 1) >> 1, p) == 1:
            chi = 1
            b = _sqrt_residue(r, p)
            if (b - d) & 1:
                b = p - b
        else:
            chi, b = -1, None
        chis.append(chi)
        idxs.append(-1 if b is None else ideal_class_of(p, b, g))
    return np.array(chis, dtype=np.int8), np.array(idxs, dtype=np.int64)


def classify_prime(p: int, g: ClassGroup) -> PrimeClassification:
    """Split / inert / ramified behaviour of p, with the classes above it."""
    [chi], [idx] = (a.tolist() for a in prime_classes([p], g))
    if chi == -1:
        return PrimeClassification(p, "inert", None, None, frozenset((0,)))
    b = sqrt_disc_mod_4p(g.disc.value, p)
    if chi == 0:
        return PrimeClassification(p, "ramified", b, idx, frozenset((idx,)))
    return PrimeClassification(
        p, "split", b, idx, frozenset((idx, g.inverse_idx(idx)))
    )


def prime_power_class(p: int, k: int, g: ClassGroup) -> list[tuple[int, int, float]]:
    """Prime-power ideals over p with exponent k: (class, norm, Lambda).

    Split p yields two entries (the power of each conjugate); ramified
    one; inert a single identity-class entry of norm p^(2k).  Lambda is
    the log of the underlying prime ideal's norm.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    info = classify_prime(p, g)
    lp = math.log(p)
    if info.kind == "inert":
        return [(0, p ** (2 * k), 2.0 * lp)]
    ck = g.power_idx(info.class_index, k)
    if info.kind == "ramified":
        return [(ck, p**k, lp)]
    cki = g.power_idx(g.inverse_idx(info.class_index), k)
    return [(ck, p**k, lp), (cki, p**k, lp)]


# ---------------------------------------------------------------------------
# representation numbers and the character formula

def _form_counts_upto(f: QuadForm, nmax: int, absd: int) -> np.ndarray:
    # positive definiteness boxes the solutions of Q(x,y) = n <= nmax:
    # y^2 <= 4*a*n/|D|, x^2 <= 4*c*n/|D|
    ymax = math.isqrt(4 * f.a * nmax // absd)
    xmax = math.isqrt(4 * f.c * nmax // absd)
    x = np.arange(-xmax, xmax + 1, dtype=np.int64)[:, None]
    y = np.arange(-ymax, ymax + 1, dtype=np.int64)[None, :]
    vals = (f.a * x * x + f.b * x * y + f.c * y * y).ravel()
    vals = vals[(vals >= 1) & (vals <= nmax)]
    return np.bincount(vals, minlength=nmax + 1)


def representation_counts_upto(nmax: int, d) -> np.ndarray:
    """r(n, d) for 0 <= n <= nmax by brute-force lattice enumeration."""
    if not isinstance(d, Discriminant):
        d = validate_discriminant(d)
    g = enumerate_reduced_forms(d, strict=False)
    total = np.zeros(nmax + 1, dtype=np.int64)
    for f in g.elements:
        total += _form_counts_upto(f, nmax, -d.value)
    return total


def representation_count(n: int, d) -> int:
    """Number of (x, y) with Q(x, y) = n summed over all reduced Q of disc d."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not isinstance(d, Discriminant):
        d = validate_discriminant(d)
    g = enumerate_reduced_forms(d, strict=False)
    absd = -d.value
    count = 0
    for f in g.elements:
        ymax = math.isqrt(4 * f.a * n // absd)
        xmax = math.isqrt(4 * f.c * n // absd)
        for y in range(-ymax, ymax + 1):
            for x in range(-xmax, xmax + 1):
                if f.a * x * x + f.b * x * y + f.c * y * y == n:
                    count += 1
    return count


def dirichlet_r(n: int, d) -> int:
    """w_D * sum over divisors e | n of (d/e); must equal r(n, d)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dv = d.value if isinstance(d, Discriminant) else validate_discriminant(d).value
    total = 0
    e = 1
    while e * e <= n:
        if n % e == 0:
            total += kronecker(dv, e)
            if e * e != n:
                total += kronecker(dv, n // e)
        e += 1
    return unit_count(dv) * total


def dirichlet_r_upto(nmax: int, d) -> np.ndarray:
    """dirichlet_r(n, d) for 0 <= n <= nmax via a divisor-sum sieve."""
    dv = d.value if isinstance(d, Discriminant) else validate_discriminant(d).value
    tbl = chi_table(dv, nmax + 1)
    out = np.zeros(nmax + 1, dtype=np.int64)
    for e in range(1, nmax + 1):
        ce = int(tbl[e])
        if ce:
            out[e::e] += ce
    out[0] = 0
    return out * unit_count(dv)


def chi_table(d: int, m: int) -> np.ndarray:
    """chi_d(n) for 0 <= n < m as int8, filled multiplicatively."""
    t = np.ones(m, dtype=np.int8)
    if m:
        t[0] = 0
    for p in _simple_sieve(m - 1).tolist():
        v = kronecker(d, p)
        if v == 0:
            t[p::p] = 0
            continue
        pe = p
        while pe < m:
            # multiplies chi(p) in once per power of p dividing n
            if v == -1:
                np.negative(t[pe::pe], out=t[pe::pe])
            pe *= p
    return t


class LOneEstimate(NamedTuple):
    value: float
    tail_bound: float
    terms: int


_recip_lock = threading.Lock()
_recip = np.empty(0)


def _recip_upto(n: int) -> np.ndarray:
    """Cached [1, 1/2, ..., 1/n]; grows geometrically."""
    global _recip
    if len(_recip) < n:
        with _recip_lock:
            if len(_recip) < n:
                size = max(n, 2 * len(_recip), 1 << 16)
                _recip = 1.0 / np.arange(1, size + 1)
    return _recip[:n]


def l_one_chi(d, terms: Optional[int] = None) -> LOneEstimate:
    """Partial sum of L(1, chi_d) = sum chi_d(n)/n over n <= terms.

    The reported tail bound |D|/terms comes from partial summation
    against the trivial character-sum bound.
    """
    if not isinstance(d, Discriminant):
        d = validate_discriminant(d)
    m = -d.value
    if terms is None:
        terms = max(10**6, 100 * m)
    if terms < m:
        raise ValueError(f"terms = {terms} must be at least |D| = {m}")
    tbl = chi_table(d.value, m)
    reps = terms // m + 2
    chi = np.tile(tbl, reps)[1 : terms + 1].astype(np.float64)
    value = float(chi @ _recip_upto(terms))
    return LOneEstimate(value, m / terms, terms)


def class_number_from_l(d, terms: Optional[int] = None) -> int:
    """h via the class number formula h = w_D sqrt(|D|) L(1,chi) / (2 pi)."""
    dv = d.value if isinstance(d, Discriminant) else d
    est = l_one_chi(d if isinstance(d, Discriminant) else validate_discriminant(d), terms)
    return round(unit_count(dv) * math.sqrt(-dv) * est.value / (2 * math.pi))
