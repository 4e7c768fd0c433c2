"""Rational-prime arithmetic against a fixed negative discriminant.

Kronecker symbol, segmented prime sieve, classification of primes as
split / inert / ramified with the classes of the primes above them,
brute-force representation counts, the character divisor-sum formula
they must match, and partial sums of L(1, chi_D).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .classgroup import (
    ClassGroup,
    InvalidIdealBasis,
    _factorize,
    enumerate_reduced_forms,
)
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
    """Primes <= limit by a plain sieve (used for base primes)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_c = np.zeros(limit + 1, dtype=bool)
    is_c[:2] = True
    is_c[4::2] = True
    for p in range(3, math.isqrt(limit) + 1, 2):
        if not is_c[p]:
            is_c[p * p :: 2 * p] = True
    return np.flatnonzero(~is_c)


def check_sieve_limit(limit: int, cap: int) -> None:
    if limit > cap:
        raise LimitTooLarge(f"sieve limit {limit} exceeds cap {cap}")


def iter_prime_blocks(
    lo: int, hi: int, *, cap: int = SIEVE_CAP_DEFAULT, block: int = _BLOCK
) -> Iterator[np.ndarray]:
    """Yield primes in [lo, hi] in ascending blocks; memory stays O(sqrt(hi) + block)."""
    check_sieve_limit(hi, cap)
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
    check_sieve_limit(limit, cap)
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


# p and |D| below 2^31 keep every product of two residues, b^2 - D and
# every step of the form reduction below 2^62, so int64 arithmetic is exact.
_INT64_EXACT = 1 << 31
# Primes per array pass of prime_classes; bounds the kernel's temporaries.
_CHUNK = 1 << 14
# Packed form keys are slot * 2^48 + a * 2^32 + b; |b| <= a < 2^15 for |D| < 2^31.
_SLOT_SHIFT = 48


def _residue_table(q: int) -> np.ndarray:
    """is_residue[n] for 0 <= n < q; 0 counts as a residue."""
    table = np.zeros(q, dtype=bool)
    table[np.arange(q) ** 2 % q] = True
    return table


# Odd primes tried as the non-residue of Tonelli-Shanks, with their residue
# tables; over all primes p = 1 mod 8 below 2^31 the least non-residue is
# at most 83 (at p = 898716289).
_NONRESIDUE_BASES = tuple((q, _residue_table(q)) for q in _simple_sieve(1 << 8)[1:].tolist())


def _powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base ** exp % mod elementwise, by right-to-left binary powering."""
    result = np.ones_like(base)
    while True:
        result = np.where(exp & 1 == 1, result * base % mod, result)
        exp = exp >> 1
        if not exp.any():
            return result
        base = base * base % mod


def _square_times(x: np.ndarray, k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x ** (2 ** k) % p elementwise, for k >= 0."""
    for step in range(int(k.max(initial=0))):
        x = np.where(step < k, x * x % p, x)
    return x


def _order_exponent(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Least i >= 0 with t ** (2 ** i) = 1 mod p; t must have 2-power order."""
    i = np.zeros_like(t)
    pending = np.flatnonzero(t != 1)
    u, q = t[pending], p[pending]
    step = 0
    while pending.size:
        step += 1
        u = u * u % q
        done = u == 1
        i[pending[done]] = step
        keep = ~done
        pending, u, q = pending[keep], u[keep], q[keep]
    return i


def _nonresidues(p: np.ndarray) -> np.ndarray:
    """A quadratic non-residue mod each prime p = 1 mod 8.

    2 is a residue mod such p, and by reciprocity (q/p) = (p mod q / q) for
    odd primes q, so the least odd prime q whose residue table misses
    p mod q is the least non-residue.  q = p never serves: p mod q = 0
    counts as a residue.
    """
    z = np.zeros_like(p)
    pending = np.arange(len(p))
    for q, residues in _NONRESIDUE_BASES:
        if not pending.size:
            break
        found = ~residues[p[pending] % q]
        z[pending[found]] = q
        pending = pending[~found]
    if pending.size:
        raise RuntimeError(f"no quadratic non-residue below 2^8 mod {int(p[pending[0]])}")
    return z


def _tonelli_shanks(r, t, i, s, q, p) -> np.ndarray:
    """Finish Tonelli-Shanks for residues a mod primes p = q 2^s + 1.

    Starts from r = a^((q+1)/2), t = a^q and i, the least exponent with
    t^(2^i) = 1; r^2 = a t holds throughout and the loop ends at t = 1.
    """
    c = _powmod(_nonresidues(p), q, p)
    m = s
    act = np.flatnonzero(i > 0)
    while act.size:
        pa, ia = p[act], i[act]
        b = _square_times(c[act], m[act] - ia - 1, pa)
        r[act] = r[act] * b % pa
        c[act] = b * b % pa
        t[act] = t[act] * c[act] % pa
        m[act] = ia
        i[act] = _order_exponent(t[act], pa)
        act = act[i[act] > 0]
    return r


def _sqrt_mod_primes(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a is a square mod p, a square root of a where it is), elementwise
    for odd primes p and 0 < a < p.

    One modular power per prime: r = a^((p+1)/4) for p = 3 mod 4, Atkin's
    v = (2a)^((p-5)/8) for p = 5 mod 8, and x = a^((q-1)/2) with
    p - 1 = q 2^s for p = 1 mod 8, which gives t = a^q for Euler's
    criterion and starts Tonelli-Shanks on the residues only (Cohen, A
    Course in Computational Algebraic Number Theory, section 1.5).
    """
    m8 = p & 7
    c58, c18 = m8 == 5, m8 == 1
    low = (p - 1) & (1 - p)  # 2^s, the 2-part of p - 1
    q = (p - 1) // low
    base = np.where(c58, 2 * a % p, a)
    exp = np.where(m8 & 3 == 3, (p + 1) >> 2, np.where(c58, (p - 5) >> 3, (q - 1) >> 1))
    x = _powmod(base, exp, p)
    # Atkin: i = 2a v^2 squares to -1 when a is a residue mod p = 5 mod 8
    i = base * x % p * x % p
    root = np.where(c58, a * x % p * (i - 1) % p, x)
    is_qr = root * root % p == a

    sel = np.flatnonzero(c18)
    ps, xs, as_ = p[sel], x[sel], a[sel]
    t = xs * xs % ps * as_ % ps
    order = _order_exponent(t, ps)
    s = np.log2(low[sel]).astype(np.int64)
    qr = order < s  # Euler: a^((p-1)/2) = t^(2^(s-1)) = 1
    is_qr[sel] = qr
    root[sel[qr]] = _tonelli_shanks(
        xs[qr] * as_[qr] % ps[qr], t[qr], order[qr], s[qr], q[sel][qr], ps[qr]
    )
    return is_qr, root


def _reduced_keys(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a * 2^32 + b of the reduced form equivalent to each (a, b, c).

    The same steps as qform._reduce_triple, on the triples not yet reduced.
    """
    out_a = np.empty_like(a)
    out_b = np.empty_like(b)
    act = np.arange(len(a))
    while act.size:
        r = (a - b) // (2 * a)
        c = c + r * (b + a * r)
        b = b + 2 * r * a
        swap = a > c
        done = ~swap
        out_a[act[done]] = a[done]
        out_b[act[done]] = np.where((a == c) & (b < 0), -b, b)[done]
        act, a, b, c = act[swap], c[swap], -b[swap], a[swap]
    return (out_a << 32) + out_b


def _classes_chunk(p: np.ndarray, d: np.ndarray, slot: np.ndarray, keys: np.ndarray):
    """One pass of (D, p) pairs: chi_D(p) and the position in `keys` of
    the class above p (-1 for inert p).  keys is the sorted table of
    packed (slot, a, b) of the forms of every group in the batch; slot[i]
    names the group of pair i."""
    a = d % p
    chi = np.full(len(p), -1, dtype=np.int8)
    is_scalar = (p == 2) | (a == 0)
    odd = np.flatnonzero(~is_scalar)
    is_qr, root = _sqrt_mod_primes(a[odd], p[odd])
    split = odd[is_qr]
    r = root[is_qr]
    chi[split] = 1
    # p = 2 and p | D: chi and b from the scalar route, then the shared lookup
    sj, sb = [], []
    for j in np.flatnonzero(is_scalar).tolist():
        dj, pj = int(d[j]), int(p[j])
        chi[j] = kronecker(dj, pj)
        b = sqrt_disc_mod_4p(dj, pj)
        if b is not None:
            sj.append(j)
            sb.append(b)
    sel = np.concatenate([split, np.array(sj, dtype=np.int64)])
    b = np.concatenate(
        [np.where((r - d[split]) & 1 == 1, p[split] - r, r), np.array(sb, dtype=np.int64)]
    )
    ps, ds = p[sel], d[sel]
    k = (slot[sel] << _SLOT_SHIFT) + _reduced_keys(ps, b, (b * b - ds) // (4 * ps))
    at = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
    missing = np.flatnonzero(keys[at] != k)
    if missing.size:
        # only reachable for non-maximal orders (non-fundamental d)
        j = missing[np.argmin(sel[missing])]
        raise InvalidIdealBasis(
            f"ideal ({ps[j]}, {b[j]}) is not invertible for discriminant {ds[j]}"
        )
    pos = np.full(len(p), -1, dtype=np.int64)
    pos[sel] = at
    return chi, pos


def check_disc_limit(d: int) -> None:
    """LimitTooLarge unless |d| is below 2^31, the prime -> class limit."""
    if -d >= _INT64_EXACT:
        raise LimitTooLarge(f"|D| = {-d} is not below 2^31, the prime -> class limit")


def prime_classes_batch(
    primes, slot, groups: Sequence[ClassGroup]
) -> tuple[np.ndarray, np.ndarray]:
    """prime_classes for the pairs (groups[slot[i]], primes[i]), in passes of
    _CHUNK pairs whatever their discriminants.

    Each pair gets the discriminant of its group; one sorted table of
    packed (slot, a, b) keys covers the forms of all groups.  idx is the
    class index within the pair's group.  Errors name the discriminant of
    the failing pair: LimitTooLarge when its |D| or prime is not below
    2^31, InvalidIdealBasis when the ideal above the prime is not
    invertible.
    """
    primes = np.asarray(primes, dtype=np.int64)
    slot = np.asarray(slot, dtype=np.int64)
    if len(groups) > 1 << (62 - _SLOT_SHIFT):  # keys must stay below 2^63
        raise ValueError(f"{len(groups)} groups do not fit the packed keys")
    dv = np.array([g.disc.value for g in groups], dtype=np.int64)
    for g in groups:
        check_disc_limit(g.disc.value)
    over = np.flatnonzero(primes >= _INT64_EXACT)
    if over.size:
        j = over[0]
        raise LimitTooLarge(
            f"prime {primes[j]} at D = {dv[slot[j]]} is not below 2^31, the prime -> class limit"
        )
    keys = np.concatenate([(s << _SLOT_SHIFT) + g.form_keys for s, g in enumerate(groups)])
    starts = np.cumsum([0] + [g.h for g in groups])[:-1]
    d = dv[slot]
    chi = np.empty(len(primes), dtype=np.int8)
    idx = np.empty(len(primes), dtype=np.int64)
    for lo in range(0, len(primes), _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        chi[sl], idx[sl] = _classes_chunk(primes[sl], d[sl], slot[sl], keys)
    found = idx >= 0
    idx[found] -= starts[slot[found]]
    return chi, idx


def prime_classes(primes, g: ClassGroup) -> tuple[np.ndarray, np.ndarray]:
    """chi_D(p) and the class of the ideal (p, b) above p, for each prime p.

    Returns (chi, idx) aligned with `primes`; idx is -1 for inert p.  For
    split p the conjugate ideal lies in the inverse class.  b is the square
    root of D mod 4p with b = D (mod 2); the form (p, b, (b^2 - D)/4p) is
    reduced and looked up among g.elements.  Odd p not dividing D run as
    int64 array code in passes of _CHUNK primes; p = 2 and p | D get chi
    and b from the scalar route (kronecker, sqrt_disc_mod_4p) and share
    the lookup.  Raises LimitTooLarge when a prime or |D| is not below
    2^31, where int64 would stop being exact, and InvalidIdealBasis when
    the ideal above p is not invertible, which happens only at primes
    dividing the conductor of a non-fundamental D.  A batch of one for
    prime_classes_batch.
    """
    primes = np.asarray(primes, dtype=np.int64)
    return prime_classes_batch(primes, np.zeros(len(primes), dtype=np.int64), [g])


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


# One period of the character of each even prime discriminant.
_TWO_PART = {
    -4: (0, 1, 0, -1),
    8: (0, 1, 0, -1, 0, -1, 0, 1),
    -8: (0, 1, 0, 1, 0, -1, 0, -1),
}


def chi_table(d: int, m: int) -> np.ndarray:
    """chi_d(n) = (d/n) for 0 <= n < m as int8, d a negative discriminant.

    For d = f^2 d0 with d0 fundamental, (d/n) = (d0/n) [gcd(n, f) = 1],
    and chi_d0 is the product of the characters of the prime
    discriminants of d0 (Davenport, Multiplicative Number Theory, ch. 5):
    the Legendre symbol (n/q) for each odd prime q | d0, and the
    character of d0's 2-part, -4, 8 or -8.  The factors are multiplied
    into one period of length min(m, |d|), which is then tiled to m.
    """
    validate_discriminant(d)
    if m == 0:
        return np.zeros(0, dtype=np.int8)
    n = min(m, -d)
    exps = _factorize(-d)
    e2 = exps.pop(2, 0)
    odd = sorted((q for q, e in exps.items() if e % 2), reverse=True)
    k = -(2 ** (e2 % 2)) * math.prod(odd)  # squarefree kernel of d
    d0 = k if k % 4 == 1 else 4 * k
    factors = [_legendre_table(q, n) for q in odd]
    two = d0 // math.prod(q if q % 4 == 1 else -q for q in odd)
    if two != 1:
        factors.append(np.array(_TWO_PART[two][:n], dtype=np.int8))
    t = factors[0] if len(factors[0]) == n else _periodic(factors[0], 0, n)
    for f in factors[1:]:
        whole = n - n % len(f)
        block = t[:whole].reshape(-1, len(f))
        block *= f
        t[whole:] *= f[: n - whole]
    for p in [2, *exps]:
        if (d // d0) % p == 0:  # p divides the conductor f
            t[::p] = 0
    return t if n == m else _periodic(t, 0, m)


def _legendre_table(q: int, n: int) -> np.ndarray:
    """(k/q) for 0 <= k < min(q, n) as int8, q an odd prime, by marking
    the squares i^2 mod q for 1 <= i <= (q-1)/2 in blocks of _BLOCK."""
    t = np.full(min(q, n), -1, dtype=np.int8)
    t[0] = 0
    half = (q + 1) // 2
    for lo in range(1, half, _BLOCK):
        s = np.arange(lo, min(lo + _BLOCK, half), dtype=np.int64)
        s *= s
        s %= q
        t[s if len(t) == q else s[s < len(t)]] = 1
    return t


class LOneEstimate(NamedTuple):
    value: float
    tail_bound: float
    terms: int


def l_one_chi(d, terms: Optional[int] = None) -> LOneEstimate:
    """Partial sum of L(1, chi_d) = sum chi_d(n)/n over n <= terms.

    The reported tail bound |D|/terms comes from partial summation
    against the trivial character-sum bound.  Summed in blocks of _BLOCK
    terms, so memory is O(|D| + _BLOCK) whatever `terms` is.
    """
    if not isinstance(d, Discriminant):
        d = validate_discriminant(d)
    m = -d.value
    if terms is None:
        terms = max(10**6, 100 * m)
    if terms < m:
        raise ValueError(f"terms = {terms} must be at least |D| = {m}")
    tbl = chi_table(d.value, m)
    value = 0.0
    for lo in range(1, terms + 1, _BLOCK):
        n = np.arange(lo, min(lo + _BLOCK, terms + 1))
        value += float(_periodic(tbl, lo, len(n)) @ (1.0 / n))
    return LOneEstimate(value, m / terms, terms)


def _periodic(tbl: np.ndarray, start: int, count: int) -> np.ndarray:
    """tbl[(start + arange(count)) % len(tbl)], copied from tbl rather than
    gathered through an int64 modulus: one period from two slices of tbl,
    then the filled prefix copied onto the rest, doubling each time."""
    period = len(tbl)
    out = np.empty(count, dtype=tbl.dtype)
    r = start % period
    head = min(count, period - r)
    out[:head] = tbl[r : r + head]
    done = min(count, period)
    out[head:done] = tbl[: done - head]
    while done < count:
        k = min(done, count - done)
        out[done : done + k] = out[:k]
        done += k
    return out


def class_number_from_l(d, terms: Optional[int] = None) -> int:
    """h via the class number formula h = w_D sqrt(|D|) L(1,chi) / (2 pi)."""
    if not isinstance(d, Discriminant):
        d = validate_discriminant(d)
    est = l_one_chi(d, terms)
    return round(unit_count(d.value) * math.sqrt(-d.value) * est.value / (2 * math.pi))
