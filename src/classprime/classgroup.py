"""Form class groups of imaginary quadratic discriminants.

Enumerates the reduced forms of a discriminant, computes the abelian
group structure (invariant factors n_1 | n_2 | ... with generators and a
full coordinate table) the first time it is read, and builds the dual
character group.  Element order is lexicographic on (a, b, c); index 0
is always the principal class.
"""
from __future__ import annotations

import itertools
import math
import cmath
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .qform import (
    Discriminant,
    InvariantViolation,
    QuadForm,
    _reduce_triple,
    compose,
    identity_form,
    opposite,
    validate_discriminant,
)


class NotFundamental(ValueError):
    """Discriminant is valid but not fundamental (strict mode rejects it)."""


class InvalidIdealBasis(ValueError):
    """(a, b) does not describe an ideal: a < 1 or 4a does not divide b^2 - D."""


@dataclass
class ClassGroup:
    disc: Discriminant
    elements: tuple[QuadForm, ...]
    h: int
    nonfundamental: bool = False
    _index: dict = field(default_factory=dict, repr=False)
    # filled by group_structure() on first read of basis, coords or orders()
    _basis: Optional[tuple[tuple[int, int], ...]] = field(default=None, repr=False)
    _coords: Optional[tuple[tuple[int, ...], ...]] = field(default=None, repr=False)

    @property
    def basis(self) -> tuple[tuple[int, int], ...]:
        """(element index, order) per invariant factor, orders ascending n_1 | n_2 | ..."""
        if self._basis is None:
            group_structure(self)
        return self._basis

    @property
    def coords(self) -> tuple[tuple[int, ...], ...]:
        """Exponents of each class against the basis."""
        if self._coords is None:
            group_structure(self)
        return self._coords

    @cached_property
    def inverse(self) -> np.ndarray:
        """Index of each class's inverse, the class of (a, -b, c)."""
        inv = [self._index[tuple(opposite(f))] for f in self.elements]
        inv = np.array(inv, dtype=np.int64)
        inv.flags.writeable = False
        return inv

    def index_of(self, f: QuadForm) -> int:
        key = (f.a, f.b, f.c)
        if key not in self._index:
            raise KeyError(f"{f} is not a reduced form of discriminant {self.disc.value}")
        return self._index[key]

    def compose_idx(self, i: int, j: int) -> int:
        return self._index[tuple(compose(self.elements[i], self.elements[j]))]

    def inverse_idx(self, i: int) -> int:
        return int(self.inverse[i])

    def power_idx(self, i: int, k: int) -> int:
        if k < 0:
            return self.power_idx(self.inverse_idx(i), -k)
        acc = 0
        base = i
        while k:
            if k & 1:
                acc = self.compose_idx(acc, base)
            base = self.compose_idx(base, base)
            k >>= 1
        return acc

    def orders(self) -> tuple[int, ...]:
        """Invariant factor orders (n_1, ..., n_k)."""
        return tuple(n for _, n in self.basis)


def enumerate_reduced_forms(d, *, strict: bool = True) -> ClassGroup:
    """Build the class group skeleton: all primitive reduced forms of d.

    strict=True raises NotFundamental for valid but non-fundamental d
    (scan mode); strict=False accepts it and sets a warning flag.
    """
    if not isinstance(d, Discriminant):
        d = validate_discriminant(d)
    nonfund = not d.fundamental
    if nonfund and strict:
        raise NotFundamental(f"{d.value} is not a fundamental discriminant")
    dv = d.value
    parity = dv & 1
    forms = []
    amax = math.isqrt(-dv // 3)
    for a in range(1, amax + 1):
        fa = 4 * a
        for b in range(parity, a + 1, 2):
            cc = b * b - dv
            if cc % fa:
                continue
            c = cc // fa
            if c < a:
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue  # imprimitive forms only occur for non-fundamental d
            forms.append(QuadForm(a, b, c))
            # negative-b twin unless on the boundary |b| = a or a = c
            if 0 < b < a and c > a:
                forms.append(QuadForm(a, -b, c))
    forms.sort()
    if not forms or forms[0] != identity_form(dv):
        raise InvariantViolation(f"identity form missing from the forms of {dv}")
    g = ClassGroup(disc=d, elements=tuple(forms), h=len(forms), nonfundamental=nonfund)
    g._index = {(f.a, f.b, f.c): i for i, f in enumerate(forms)}
    return g


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _sylow_basis(g: ClassGroup, q: int, e: int) -> list[tuple[int, int]]:
    """Cyclic basis of the q-Sylow subgroup, orders descending.

    Greedy peeling: repeatedly take the element of maximal order in the
    quotient by the span so far, adjust it by earlier generators so the
    span splits as a direct sum, and extend the span table.
    """
    cof = g.h // q**e
    sylow = sorted({g.power_idx(x, cof) for x in range(g.h)})
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
                y = g.power_idx(y, q)
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
            adj = g.compose_idx(adj, g.power_idx(g.inverse_idx(gi), ci // t))
        gens.append((adj, t))
        new_span: dict[int, tuple[int, ...]] = {}
        for idx, vec in span.items():
            cur = idx
            for j in range(t):
                new_span[cur] = vec + (j,)
                cur = g.compose_idx(cur, adj)
        span = new_span
    return gens  # orders descending by construction


def group_structure(g: ClassGroup) -> ClassGroup:
    """Fill basis (invariant factors, ascending) and the coords table.

    ClassGroup calls this on first read of basis, coords or orders();
    calling it directly forces the computation, and again does nothing.
    """
    if g._basis is not None:
        return g
    if g.h == 1:
        g._basis = ()
        g._coords = ((),)
        return g
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
                gen = g.compose_idx(gen, gi)
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
                cur = g.compose_idx(cur, gen)
        table = nxt
    if len(table) != g.h:
        raise RuntimeError("basis does not span the class group")
    g._basis = tuple(factors)
    g._coords = tuple(table[i] for i in range(g.h))
    return g


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
    """All h characters; the trivial character comes first."""
    ranges = [range(n) for n in g.orders()]
    return [Character(g, exps) for exps in itertools.product(*ranges)]


def ideal_class_of(a: int, b: int, g: ClassGroup) -> int:
    """Class index of the ideal with basis [a, (-b + sqrt(D)) / 2].

    Requires a >= 1 and 4a | b^2 - D; the ideal maps to the reduced form
    of (a, b, (b^2 - D) / 4a).
    """
    dv = g.disc.value
    if a < 1:
        raise InvalidIdealBasis(f"ideal norm a = {a} must be positive")
    cc = b * b - dv
    if cc % (4 * a):
        raise InvalidIdealBasis(f"4*{a} does not divide {b}^2 - ({dv})")
    try:
        return g._index[_reduce_triple(a, b, cc // (4 * a))]
    except KeyError:
        # only reachable for non-maximal orders (non-fundamental d)
        raise InvalidIdealBasis(
            f"ideal ({a}, {b}) is not invertible for discriminant {dv}"
        ) from None
