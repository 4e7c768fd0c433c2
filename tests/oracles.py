"""Reference implementations the tests check the library against.

`reference_structure` is the greedy peeling that classgroup.group_structure
replays in integer arithmetic: every group operation here is a Gauss
composition of reduced forms, so it shares nothing with the library's
coordinate arithmetic but the enumeration of the forms.

`reference_chi_table` fills chi_d multiplicatively with one kronecker
call per prime, where arith.chi_table multiplies prime-discriminant
tables.

`reference_reduced_forms` is the pair-by-pair loop that
classgroup.enumerate_reduced_forms runs as numpy passes.

The form routes (`reduce_with_transform`, `evaluate`, `opposite`,
`power`) work on one form at a time with Python ints.  `scalar_class`
is the one scalar prime -> class route of the tests, from `kronecker`,
`sqrt_disc_mod_4p` and `ideal_class_of`: `prime_classes` maps it over
primes as the oracle of arith.interval_classes' form box, and
`prime_power_class` walks powers from it.  `representation_count` counts
lattice points and `dirichlet_r` sums the divisor formula, one n at a
time.  `Character` evaluates one character at one class, the reference
for the FFT of stats.psi_by_char.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from classprime.arith import _simple_sieve, kronecker, sqrt_disc_mod_4p, unit_count
from classprime.classgroup import (
    ClassGroup,
    _factorize,
    enumerate_reduced_forms,
    ideal_class_of,
)
from classprime.qform import (
    Discriminant,
    InvariantViolation,
    QuadForm,
    _check_posdef,
    _reduce_triple,
    compose,
    identity_form,
    reduce,
    validate_discriminant,
)


def compose_idx(g: ClassGroup, i: int, j: int) -> int:
    return g.index_of(compose(g.elements[i], g.elements[j]))


def power_idx(g: ClassGroup, i: int, k: int) -> int:
    if k < 0:
        return power_idx(g, g.inverse_idx(i), -k)
    acc = 0
    base = i
    while k:
        if k & 1:
            acc = compose_idx(g, acc, base)
        base = compose_idx(g, base, base)
        k >>= 1
    return acc


def _sylow_basis(g: ClassGroup, q: int, e: int) -> list[tuple[int, int]]:
    """Cyclic basis of the q-Sylow subgroup, orders descending.

    Greedy peeling: repeatedly take the element of maximal order in the
    quotient by the span so far, adjust it by earlier generators so the
    span splits as a direct sum, and extend the span table.
    """
    cof = g.h // q**e
    sylow = sorted({power_idx(g, x, cof) for x in range(g.h)})
    span: dict[int, tuple[int, ...]] = {0: ()}
    gens: list[tuple[int, int]] = []
    while len(span) < len(sylow):
        best_x = best_t = -1
        best_tail: tuple[int, ...] = ()
        for x in sylow:
            if x in span:
                continue
            t, y = 1, x
            while y not in span:
                y = power_idx(g, y, q)
                t *= q
            if t > best_t:
                best_x, best_t, best_tail = x, t, span[y]
        x, t, tail = best_x, best_t, best_tail
        # x^t lands in the span with coordinates `tail`; maximality of the
        # quotient order guarantees t divides every coordinate, so x can be
        # shifted by earlier generators to have honest order t.
        adj = x
        for (gi, _), ci in zip(gens, tail):
            if ci % t:
                raise InvariantViolation("abelian basis peeling invariant violated")
            adj = compose_idx(g, adj, power_idx(g, g.inverse_idx(gi), ci // t))
        gens.append((adj, t))
        new_span: dict[int, tuple[int, ...]] = {}
        for idx, vec in span.items():
            cur = idx
            for j in range(t):
                new_span[cur] = vec + (j,)
                cur = compose_idx(g, cur, adj)
        span = new_span
    return gens  # orders descending by construction


def reference_structure(
    g: ClassGroup,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """(basis, coords) of g by greedy peeling, CRT merge and a table walk."""
    if g.h == 1:
        return (), ((),)
    per_prime = [
        _sylow_basis(g, q, e) for q, e in sorted(_factorize(g.h).items())
    ]
    width = max(len(comp) for comp in per_prime)
    # j-th largest cyclic factors across primes multiply (CRT) into the
    # j-th largest invariant factor
    factors: list[tuple[int, int]] = []
    for j in range(width):
        gen, order = 0, 1
        for comp in per_prime:
            if j < len(comp):
                gi, n = comp[j]
                gen = compose_idx(g, gen, gi)
                order *= n
        factors.append((gen, order))
    factors.reverse()  # ascending: n_1 | n_2 | ... | n_k
    table: dict[int, tuple[int, ...]] = {0: ()}
    for gen, order in factors:
        nxt: dict[int, tuple[int, ...]] = {}
        for idx, vec in table.items():
            cur = idx
            for j in range(order):
                nxt[cur] = vec + (j,)
                cur = compose_idx(g, cur, gen)
        table = nxt
    if len(table) != g.h:
        raise RuntimeError("basis does not span the class group")
    return tuple(factors), tuple(table[i] for i in range(g.h))


def reference_chi_table(d: int, m: int) -> np.ndarray:
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


def reference_reduced_forms(dv: int) -> list[QuadForm]:
    """The primitive reduced forms of discriminant dv, sorted."""
    parity = dv & 1
    forms = []
    for a in range(1, math.isqrt(-dv // 3) + 1):
        for b in range(parity, a + 1, 2):
            cc = b * b - dv
            if cc % (4 * a):
                continue
            c = cc // (4 * a)
            if c < a or math.gcd(math.gcd(a, b), c) != 1:
                continue
            forms.append(QuadForm(a, b, c))
            # negative-b twin unless on the boundary |b| = a or a = c
            if 0 < b < a and c > a:
                forms.append(QuadForm(a, -b, c))
    return sorted(forms)


# ---------------------------------------------------------------------------
# single forms

def is_reduced(f: QuadForm) -> bool:
    a, b, c = f
    if not (-a < b <= a <= c):
        return False
    if a == c and b < 0:
        return False
    return True


def reduce_with_transform(
    f: QuadForm,
) -> tuple[QuadForm, tuple[int, int, int, int]]:
    """Reduce f, returning (g, (p, q, r, s)) with det = 1 and
    g(x, y) = f(p*x + q*y, r*x + s*y).
    """
    _check_posdef(f)
    a, b, c = f
    # accumulate the unimodular word; column action, so right-multiply
    m11, m12, m21, m22 = 1, 0, 0, 1
    while True:
        if -a < b <= a:
            if a > c:
                a, b, c = c, -b, a
                # S = [[0,-1],[1,0]]
                m11, m12, m21, m22 = m12, -m11, m22, -m21
                continue
            if a == c and b < 0:
                b = -b
                m11, m12, m21, m22 = m12, -m11, m22, -m21
            g = QuadForm(a, b, c)
            if not is_reduced(g):
                raise InvariantViolation(f"reduction ended at unreduced {g}")
            return g, (m11, m12, m21, m22)
        r = (a - b) // (2 * a)
        b, c = b + 2 * r * a, a * r * r + b * r + c
        # T^r = [[1,r],[0,1]]
        m12, m22 = m11 * r + m12, m21 * r + m22


def evaluate(f: QuadForm, x: int, y: int) -> int:
    return f.a * x * x + f.b * x * y + f.c * y * y


def opposite(f: QuadForm) -> QuadForm:
    """Inverse class: reduce (a, -b, c)."""
    _check_posdef(f)
    return QuadForm(*_reduce_triple(f.a, -f.b, f.c))


def power(f: QuadForm, k: int) -> QuadForm:
    """k-th power of the class of f (square and multiply)."""
    d = f.disc()
    if k < 0:
        return power(opposite(f), -k)
    acc = identity_form(d)
    base = reduce(f)
    while k:
        if k & 1:
            acc = compose(acc, base)
        base = compose(base, base)
        k >>= 1
    return acc


# ---------------------------------------------------------------------------
# primes and representation numbers, one at a time

def scalar_class(p: int, g: ClassGroup) -> tuple[int, int]:
    """chi_D(p) and the class of the ideal (p, b) above p, -1 for inert p:
    b is the square root of D mod 4p with b = D (mod 2), and the form
    (p, b, (b^2 - D)/4p) is reduced and looked up among g's forms."""
    d = g.disc.value
    b = sqrt_disc_mod_4p(d, p)
    return kronecker(d, p), (-1 if b is None else ideal_class_of(p, b, g))


def prime_classes(primes, g: ClassGroup) -> tuple[np.ndarray, np.ndarray]:
    """(chi, idx) of scalar_class for each prime, as int8 and int64 arrays.

    arith.interval_classes gives the same chi and, for split p, this class
    or its inverse.  InvalidIdealBasis at primes dividing the conductor of
    a non-fundamental D.
    """
    pairs = [scalar_class(p, g) for p in np.asarray(primes, dtype=np.int64).tolist()]
    chi = np.array([c for c, _ in pairs], dtype=np.int8)
    idx = np.array([i for _, i in pairs], dtype=np.int64)
    return chi, idx


def prime_power_class(p: int, k: int, g: ClassGroup) -> list[tuple[int, int, float]]:
    """Prime-power ideals over p with exponent k: (class, norm, Lambda).

    Split p yields two entries (the power of each conjugate); ramified
    one; inert a single identity-class entry of norm p^(2k).  Lambda is
    the log of the underlying prime ideal's norm.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    chi, idx = scalar_class(p, g)
    lp = math.log(p)
    if chi == -1:
        return [(0, p ** (2 * k), 2.0 * lp)]
    ck = g.power_idx(idx, k)
    if chi == 0:
        return [(ck, p**k, lp)]
    cki = g.power_idx(g.inverse_idx(idx), k)
    return [(ck, p**k, lp), (cki, p**k, lp)]


def representation_count(n: int, d) -> int:
    """Number of (x, y) with Q(x, y) = n summed over all reduced Q of disc d."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not isinstance(d, Discriminant):
        d = validate_discriminant(d)
    g = enumerate_reduced_forms(d)
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


# ---------------------------------------------------------------------------
# characters, one value at a time

@dataclass(frozen=True, eq=False)
class Character:
    """Character of the class group given by exponents against the basis."""

    group: ClassGroup
    exponents: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return all(m == 0 for m in self.exponents)

    def value(self, i: int) -> complex:
        g = self.group
        lcm = g.basis[-1][1] if g.basis else 1
        # exact angle accumulation: everything stays an integer mod lcm
        s = 0
        for m, a, (_, n) in zip(self.exponents, g.coords[i], g.basis):
            s += m * a * (lcm // n)
        return cmath.exp(2j * math.pi * (s % lcm) / lcm)

    def values(self) -> list[complex]:
        return [self.value(i) for i in range(self.group.h)]


def characters(g: ClassGroup) -> list[Character]:
    """All h characters, in the C order of the grid of shape g.orders();
    the trivial character comes first."""
    ranges = [range(n) for n in g.orders()]
    return [Character(g, exps) for exps in itertools.product(*ranges)]
