"""Rational-prime arithmetic against a fixed negative discriminant.

Segmented prime sieve, classification of primes as split / inert /
ramified with the classes of the primes above them (one route, the form
box of interval_classes), brute-force representation counts, the
character divisor-sum formula they must match, and partial sums of
L(1, chi_D), whose block halves and Legendre tables run on threads
(_block_map).  The scalar references they are tested against
(kronecker, the modular square roots, scalar_class, prime_classes,
prime_power_class, representation_count, dirichlet_r) are in
tests/oracles.py.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .classgroup import (
    ClassGroup,
    _passes,
    enumerate_reduced_forms,
    ideal_class_of,
)
from .qform import Discriminant, QuadForm, _factorize, validate_discriminant

SIEVE_CAP_DEFAULT = 10**9
_BLOCK = 1 << 20
# squares _legendre_table marks at once, 8 MiB of int64 split into one
# part per thread, so its memory does not grow with the CPU count
_LEGENDRE_SPAN = 1 << 20


class LimitTooLarge(ValueError):
    """Requested sieve limit exceeds the configured cap."""


def unit_count(d: int) -> int:
    """Number of units w_D: 6 for D = -3, 4 for D = -4, else 2."""
    if d == -3:
        return 6
    if d == -4:
        return 4
    return 2


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _block_map(fn, items: Sequence, most: int) -> list:
    """[fn(x) for x in items], one thread per usable CPU but at most `most`,
    for numpy passes that release the GIL; `most` bounds the items alive
    at once, and so the memory, whatever the CPU count.

    Thread i, the caller being thread 0, runs items i, i + n, i + 2n, ...
    for n threads, and results come back in item order.  Inline on one CPU
    or for one item.  After the first failure, a KeyboardInterrupt in the
    caller included, no item starts; every thread is joined before this
    returns or raises, and the first exception is raised.  Plain threads,
    not concurrent.futures, whose import pulls in logging.
    """
    n = min(usable_cpus(), most, len(items))
    if n < 2:
        return [fn(x) for x in items]
    out = [None] * len(items)
    errors: list[BaseException] = []
    done = [threading.Event() for _ in range(n)]

    def run(first: int) -> None:
        try:
            for i in range(first, len(items), n):
                if errors:
                    break
                out[i] = fn(items[i])
        except BaseException as exc:  # raised by the caller once all are joined
            errors.append(exc)
        done[first].set()

    threads: list[threading.Thread] = []
    try:
        for i in range(1, n):
            t = threading.Thread(target=run, args=(i,))
            t.start()
            threads.append(t)
        run(0)
    except BaseException as exc:  # a failed start or a KeyboardInterrupt
        errors.append(exc)
    joined = 0
    while joined < len(threads):
        # an interrupted wait leaves done as it was, and an interrupted join
        # may not (Python 3.11 can mark the running thread as stopped), so
        # each thread is waited for and then joined, again after an
        # interrupt; only one landing in the handler or on the loop test
        # escapes
        try:
            while joined < len(threads):
                done[joined + 1].wait()
                threads[joined].join()
                joined += 1
        except BaseException as exc:  # a KeyboardInterrupt while joining
            errors.append(exc)
    if errors:
        raise errors[0]
    return out


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
    """Yield primes in [lo, hi] in ascending blocks of `block` integers;
    memory stays O(sqrt(hi) + block).

    Each block sieves its odd integers only, one bool per odd number, and
    p = 2 is added by hand (Bays and Hudson, The segmented sieve of
    Eratosthenes, BIT 17, 1977).
    """
    check_sieve_limit(hi, cap)
    lo = max(lo, 2)
    if hi < lo:
        return
    base = _simple_sieve(math.isqrt(hi))[1:]  # the odd base primes
    start = lo
    while start <= hi:
        stop = min(start + block - 1, hi)
        first = start | 1  # seg[i] stands for the odd number first + 2i
        seg = np.ones((stop - first) // 2 + 1, dtype=bool)
        for p in base.tolist():
            if p * p > stop:
                break
            q = max(p, -(-start // p)) | 1  # p q: the first odd multiple to cross off
            seg[(p * q - first) // 2 :: p] = False
        primes = 2 * np.flatnonzero(seg) + first
        del seg  # a caller holding a block keeps its primes only
        if start == 2:
            primes = np.concatenate([[2], primes])
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
# classification of primes

@dataclass(frozen=True)
class PrimeClassification:
    p: int
    kind: str  # "split" | "inert" | "ramified"
    class_index: Optional[int]  # a class above p; None for inert p
    classes: frozenset[int]


# The prime -> class limit: primes and |D| below 2^31 keep 4 a hi, the
# largest square root the form box takes, below 2^48, so float64 square
# roots and int64 arithmetic stay exact.
_INT64_EXACT = 1 << 31
# Form rows and lattice points per array pass of interval_classes; they
# bound its temporaries.
_PASS_ROWS = 1 << 13
_PASS_POINTS = 1 << 16


def check_disc_limit(d: int) -> None:
    """LimitTooLarge unless |d| is below 2^31, the prime -> class limit."""
    if -d >= _INT64_EXACT:
        raise LimitTooLarge(f"|D| = {-d} is not below 2^31, the prime -> class limit")


def check_prime_limit(primes: np.ndarray, d: int) -> None:
    """LimitTooLarge, naming d, unless |d| and every prime of the
    ascending array primes are below 2^31."""
    check_disc_limit(d)
    if len(primes) and primes[-1] >= _INT64_EXACT:
        p = primes[np.searchsorted(primes, _INT64_EXACT)]
        raise LimitTooLarge(f"prime {p} at D = {d} is not below 2^31, the prime -> class limit")


# The prime bases up to 37: a number below _MR_LIMIT that is a strong
# probable prime to each of them is prime (Sorenson and Webster, Strong
# pseudoprimes to twelve prime bases, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test on the prime bases up to 37, exact
    for 0 <= n < _MR_LIMIT (about 3.2e23); ValueError from there on."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is past the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """The least prime >= n, by is_prime."""
    while not is_prime(n):
        n += 1
    return n


def _scalar_class(p: int, g: ClassGroup) -> tuple[int, int]:
    """chi_D(p) and the class of the ideal (p, b) above p, -1 for inert p,
    at the primes the form box leaves out: p = 2 and odd p | D.  There
    the b with b^2 = D (mod 4p) and b = D (mod 2) has a closed form: for
    p = 2 it is read off D mod 8 (0: b = 0, 4: b = 2, 1: split with
    b = 1, 5: inert), and for odd p | D it is 0 or p, whichever has D's
    parity.  InvalidIdealBasis at primes dividing the conductor of a
    non-fundamental D, where the ideal is not invertible."""
    d = g.disc.value
    if p != 2:
        chi, b = 0, p * (d & 1)
    elif d % 8 == 5:
        return -1, -1
    else:
        chi, b = {0: (0, 0), 4: (0, 2), 1: (1, 1)}[d % 8]
    return chi, ideal_class_of(p, b, g)


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) elementwise for 0 <= n < 2^52."""
    r = np.sqrt(n).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def box_points(g: ClassGroup, lo: int, hi: int) -> int:
    """About the lattice points interval_classes enumerates for [lo, hi]
    against g: per form with b >= 0, the area pi (hi - lo) / (2 sqrt|D|)
    of its odd values over y >= 0, plus one."""
    absd = -g.disc.value
    per_form = math.pi * max(hi - lo + 1, 0) / (2 * math.sqrt(absd)) + 1
    return int(len(g.box_forms) * per_form)


def _box_runs(a, b, c, cls, absd, lo, hi, shift, rows):
    """The form boxes of some forms as runs of points.

    Entry i is the form (a, b, c)[i] of class cls[i] against discriminant
    -absd[i] over the norms lo[i]..hi[i], with rows[i] rows y >= 0.  Run
    j has count[j] points; its k-th point is an odd value v = f(x, y) in
    [lo, hi], marked at label position ((alpha k + beta) k + gamma) >> 1
    = (v + shift) >> 1 with cls[j].  Row y takes the x with s = 2ax + by
    and 4a lo <= s^2 + |D| y^2 <= 4a hi, one run for s >= 0 and one for
    s < 0; f(x, y) = x (a + by) + cy (mod 2) gives a step of 2 through
    one parity of x, every x, or none.
    """
    row = np.repeat(np.arange(len(a)), rows)
    y = np.arange(len(row)) - np.repeat(np.cumsum(rows) - rows, rows)
    a, b, c, cls, absd, shift = a[row], b[row], c[row], cls[row], absd[row], shift[row]
    dy = absd * y * y
    s_hi = _isqrt(4 * a * hi[row] - dy)
    low = np.maximum(4 * a * lo[row] - dy, 0)
    s_lo = _isqrt(low)
    s_lo += s_lo * s_lo < low
    by, a2 = b * y, 2 * a
    odd = (a + by) & 1  # 1: a step of 2 through one parity of x
    live = odd | (c * y) & 1  # 0: every value of the row is even
    first = np.concatenate([-((by - s_lo) // a2), -((by + s_hi) // a2)])
    last = np.concatenate([(s_hi - by) // a2, (-np.maximum(s_lo, 1) - by) // a2])
    a, by, cy2, odd, live, cls, shift = (
        np.tile(v, 2) for v in (a, by, c * y * y, odd, live, cls, shift)
    )
    step = 1 + odd
    x0 = first + (odd & (1 + cy2 + first))  # cy^2 and cy have one parity
    count = np.where((live == 1) & (last >= x0), (last - x0) // step + 1, 0)
    keep = count > 0
    alpha = (a * step * step)[keep]
    beta = (step * (2 * a * x0 + by))[keep]
    gamma = ((a * x0 + by) * x0 + cy2 + shift)[keep]
    return count[keep], alpha, beta, gamma, cls[keep]


def interval_classes(requests) -> list[tuple[np.ndarray, np.ndarray]]:
    """chi_D(p) and a class above p for the primes of each request.

    A request is (g, primes): ascending primes, classified against the
    class group g.  Returns (chi, idx) per request, aligned with its
    primes, as int8 and int64 arrays; idx is -1 for inert p.  A request
    without primes gets empty arrays.

    An odd prime p not dividing D is a value of a reduced form exactly
    when the ideals above p lie in the form's class or its inverse (Cox,
    Primes of the form x^2 + ny^2, the form-ideal correspondence).  So
    the form box marks the odd values, over the norms from a request's
    first prime to its last, of every reduced form with b >= 0
    (g.box_forms, one per class up to inversion, so no prime is reached
    by two of them) with the form's class, and each prime reads its
    mark: a split p gets the class of (p, b) or its inverse, and a prime
    no form reaches is inert.  p = 2 and p | D take the closed forms of
    _scalar_class.  No modular arithmetic is done.  Rows are enumerated
    in passes of at most _PASS_ROWS over every request together, and
    their points in passes of at most _PASS_POINTS, so memory beyond
    that is one byte per norm of the boxes (an int16 label per odd norm;
    int32 when a group of the call has h >= 2^15).  Errors name the
    discriminant of the failing request: LimitTooLarge when its |D| or a
    prime is not below 2^31, InvalidIdealBasis when the ideal above a
    prime is not invertible.
    """
    if not requests:
        return []
    requests = [(g, np.asarray(p, dtype=np.int64)) for g, p in requests]
    d = np.array([g.disc.value for g, _ in requests], dtype=np.int64)
    for (_, primes), dv in zip(requests, d.tolist()):
        check_prime_limit(primes, dv)
    # request i's box covers the norms lo[i]..hi[i], its first prime to its
    # last; a request without primes gets the empty box 2..1
    spans = [p[[0, -1]] if len(p) else (2, 1) for _, p in requests]
    lo, hi = np.array(spans, dtype=np.int64).T
    # odd n of request i is marked at off[i] + (n - base[i]) // 2, that is
    # at (n + shift[i]) >> 1
    base = lo & ~1
    size = np.maximum(hi - base, -1) // 2 + 1
    off = np.cumsum(size) - size
    shift = 2 * off - base
    forms = [g.box_forms for g, _ in requests]
    h = max(g.h for g, _ in requests)
    label = np.full(int(size.sum()), -1, dtype=np.int16 if h < 1 << 15 else np.int32)
    r = np.repeat(np.arange(len(requests)), [len(f) for f in forms])
    # one column per (request, form): a, b, c, class, |D|, lo, hi, shift
    cols = np.vstack([np.concatenate(forms).T, -d[r], lo[r], hi[r], shift[r]])
    # y = 0 .. isqrt(4 a hi / |D|), and no row for an empty box
    rows = (_isqrt(4 * cols[0] * cols[6] // cols[4]) + 1) * (cols[5] <= cols[6])
    for i, j in _passes(rows, _PASS_ROWS):
        count, alpha, beta, gamma, mark = _box_runs(*cols[:, i:j], rows[i:j])
        for u, v in _passes(count, _PASS_POINTS):
            n = count[u:v]
            k = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
            q = np.repeat(alpha[u:v], n)
            q *= k
            q += np.repeat(beta[u:v], n)
            q *= k
            q += np.repeat(gamma[u:v], n)
            q >>= 1
            label[q] = np.repeat(mark[u:v], n)
            del k, q
    lens = [len(primes) for _, primes in requests]
    ends = np.cumsum(lens)
    primes = np.concatenate([primes for _, primes in requests])
    at = np.repeat(shift, lens)
    at += primes
    at >>= 1
    idx = label[at].astype(np.int64)
    del label, at  # so the read-out holds few arrays of the primes' size at once
    chi = np.where(idx >= 0, np.int8(1), np.int8(-1))
    scalar = np.repeat(d, lens) % primes == 0
    scalar |= primes == 2
    hits = np.flatnonzero(scalar)
    for i, j in zip(hits.tolist(), np.searchsorted(ends, hits, side="right").tolist()):
        chi[i], idx[i] = _scalar_class(int(primes[i]), requests[j][0])
    return list(zip(np.split(chi, ends[:-1]), np.split(idx, ends[:-1])))


def classify_prime(p: int, g: ClassGroup) -> PrimeClassification:
    """Split / inert / ramified behaviour of the prime p, with the classes
    above it, as interval_classes gives them: for split p, class_index is
    the class of (p, b) or its inverse.  LimitTooLarge when p or |D| is
    not below 2^31, then ValueError when p is not prime."""
    check_prime_limit(np.array([p]), g.disc.value)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    [(chi, idx)] = interval_classes([(g, np.array([p]))])
    chi, idx = int(chi[0]), int(idx[0])
    if chi == -1:
        return PrimeClassification(p, "inert", None, frozenset((0,)))
    if chi == 0:
        return PrimeClassification(p, "ramified", idx, frozenset((idx,)))
    return PrimeClassification(p, "split", idx, frozenset((idx, g.inverse_idx(idx))))


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
    g = enumerate_reduced_forms(d)
    total = np.zeros(nmax + 1, dtype=np.int64)
    for f in g.elements:
        total += _form_counts_upto(f, nmax, -d.value)
    return total


def dirichlet_r_upto(nmax: int, d) -> np.ndarray:
    """The divisor formula w_D * sum over e | n of (d/e), which r(n, d) must
    equal, for 0 <= n <= nmax: a divisor-sum sieve split by the divisor
    hyperbola at s = isqrt(nmax): the n = e k take chi(e) in one strided
    add per e <= s, then, for e > s, one per cofactor k <= s."""
    dv = d.value if isinstance(d, Discriminant) else validate_discriminant(d).value
    tbl = chi_table(dv, nmax + 1)
    out = np.zeros(nmax + 1, dtype=np.int64)
    s = math.isqrt(nmax)
    for e in range(1, s + 1):
        ce = int(tbl[e])
        if ce:
            out[e::e] += ce
    for k in range(1, s + 1):
        top = nmax // k
        out[k * (s + 1) : k * top + 1 : k] += tbl[s + 1 : top + 1]
    return out * unit_count(dv)


def divisor_formula_check(nmax: int, d) -> tuple[Optional[int], np.ndarray]:
    """Brute-force r(n, d) against dirichlet_r_upto for 1 <= n <= nmax.

    Returns the first n where they differ (None if none) and r(p, d) at
    the primes p <= nmax with chi_d(p) = 1, read from chi_table.
    """
    if not isinstance(d, Discriminant):
        d = validate_discriminant(d)
    counts = representation_counts_upto(nmax, d)
    bad = np.flatnonzero(counts[1:] != dirichlet_r_upto(nmax, d)[1:])
    primes = sieve_primes(nmax)
    split = primes[chi_table(d.value, nmax + 1)[primes] == 1]
    return (int(bad[0]) + 1 if len(bad) else None), counts[split]


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
    the squares i^2 mod q for 1 <= i <= (q-1)/2, _LEGENDRE_SPAN i at a
    time split into one part per usable CPU (_block_map, at most 16 parts
    of 2^16).  Every write stores the byte 1, so the table does not
    depend on which thread marks a square."""
    t = np.full(min(q, n), -1, dtype=np.int8)
    t[0] = 0
    half = (q + 1) // 2
    threads = min(usable_cpus(), 16)
    part = _LEGENDRE_SPAN // threads

    def mark(lo: int) -> None:
        s = np.arange(lo, min(lo + part, half), dtype=np.int64)
        s *= s
        s %= q
        t[s if len(t) == q else s[s < len(t)]] = 1

    _block_map(mark, range(1, half, part), threads)
    return t


class LOneEstimate(NamedTuple):
    value: float
    tail_bound: float
    terms: int


def l_one_chi(d, terms: Optional[int] = None) -> LOneEstimate:
    """Partial sum of L(1, chi_d) = sum chi_d(n)/n over n <= terms.

    The reported tail bound |D|/terms comes from partial summation
    against the trivial character-sum bound.  Summed in blocks of _BLOCK
    terms, each numpy's own sum of its terms (not a BLAS dot, whose
    rounding follows its thread count), added in block order.  numpy
    sums a block of n > 128 terms pairwise, adding the sums of its first
    k = n//2 - (n//2) % 8 terms and of the rest last; those two halves
    are summed on two threads where two CPUs are usable (_block_map), so
    the value is bit-identical on any thread count.  Memory is O(|D|) for
    one period of chi_d plus one block of terms, whatever `terms` and the
    CPU count are.
    """
    if not isinstance(d, Discriminant):
        d = validate_discriminant(d)
    m = -d.value
    if terms is None:
        terms = max(10**6, 100 * m)
    if terms < m:
        raise ValueError(f"terms = {terms} must be at least |D| = {m}")
    tbl = chi_table(d.value, m)
    halves = []  # two per block; a block of n <= 128 terms has an empty second half
    for lo in range(1, terms + 1, _BLOCK):
        n = min(_BLOCK, terms + 1 - lo)
        k = n // 2 - n // 2 % 8 if n > 128 else n
        halves += [(lo, lo + k), (lo + k, lo + n)]
    # two threads at most, so no more than one block's halves are alive
    sums = _block_map(lambda half: _sum_terms(tbl, *half), halves, 2)
    value = 0.0
    for first, second in zip(sums[::2], sums[1::2]):
        value += first + second
    return LOneEstimate(value, m / terms, terms)


def _sum_terms(tbl: np.ndarray, lo: int, hi: int) -> float:
    """numpy's sum of chi(k)/k over lo <= k < hi, tbl one period of chi."""
    recip = np.arange(lo, hi, dtype=float)
    np.divide(1.0, recip, out=recip)
    np.multiply(recip, _periodic(tbl, lo, len(recip)), out=recip)
    return float(recip.sum())


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
