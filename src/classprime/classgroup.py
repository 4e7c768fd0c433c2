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
from typing import Iterator, NamedTuple, Optional

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

    def __post_init__(self) -> None:
        if self.h == 1:  # the trivial group: no generators, one empty coordinate vector
            self._basis, self._coords = (), ((),)

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

    @cached_property
    def box_forms(self) -> np.ndarray:
        """(a, b, c, index) of each element with b >= 0, one per class up
        to inversion: the forms whose values arith.interval_classes marks."""
        rows = [(*f, i) for i, f in enumerate(self.elements) if f.b >= 0]
        forms = np.array(rows, dtype=np.int64).reshape(-1, 4)
        forms.flags.writeable = False
        return forms

    def index_of(self, f: QuadForm) -> int:
        key = (f.a, f.b, f.c)
        if key not in self._index:
            raise KeyError(f"{f} is not a reduced form of discriminant {self.disc.value}")
        return self._index[key]

    @cached_property
    def position(self) -> np.ndarray:
        """C-order position of each class on the grid of shape orders(),
        which is (1,) for the trivial group."""
        if self.h == 1:
            pos = np.zeros(1, dtype=np.intp)
        else:
            coords = np.array(self.coords, dtype=np.intp)
            pos = np.ravel_multi_index(tuple(coords.T), self.orders())
        pos.flags.writeable = False
        return pos

    @cached_property
    def _class_at(self) -> list[int]:
        at = [0] * self.h
        for i, p in enumerate(self.position.tolist()):
            at[p] = i
        return at

    def compose_idx(self, i: int, j: int) -> int:
        """Class of the product: coordinates add modulo orders()."""
        pos = 0
        for a, b, n in zip(self.coords[i], self.coords[j], self.orders()):
            pos = pos * n + (a + b) % n
        return self._class_at[pos]

    def inverse_idx(self, i: int) -> int:
        return int(self.inverse[i])

    def power_idx(self, i: int, k: int) -> int:
        """Class of the k-th power (any integer k): coordinates times k."""
        pos = 0
        for a, n in zip(self.coords[i], self.orders()):
            pos = pos * n + a * k % n
        return self._class_at[pos]

    def orders(self) -> tuple[int, ...]:
        """Invariant factor orders (n_1, ..., n_k)."""
        return self._orders

    @cached_property
    def _orders(self) -> tuple[int, ...]:
        return tuple(n for _, n in self.basis)


# (a, b) pairs per array pass of enumerate_reduced_forms
_FORM_PAIRS = 1 << 16


def _passes(sizes: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive slices [i, j) of the items whose sizes sum to at most
    budget, or of one larger item alone."""
    ends = np.cumsum(sizes)
    i = 0
    while i < len(ends):
        done = int(ends[i] - sizes[i])
        j = max(i + 1, int(np.searchsorted(ends, done + budget, side="right")))
        yield i, j
        i = j


def enumerate_reduced_forms(d, *, strict: bool = True) -> ClassGroup:
    """Build the class group skeleton: all primitive reduced forms of d.

    strict=True raises NotFundamental for valid but non-fundamental d
    (scan mode); strict=False accepts it and sets a warning flag.  The
    pairs (a, b) with 1 <= a <= sqrt(|d|/3), 0 <= b <= a and b = d (mod 2)
    are tested in numpy passes of _FORM_PAIRS: 4a | b^2 - d, c >= a and
    gcd(a, b, c) = 1, with the twin (a, -b, c) unless |b| = a or a = c.
    """
    if not isinstance(d, Discriminant):
        d = validate_discriminant(d)
    nonfund = not d.fundamental
    if nonfund and strict:
        raise NotFundamental(f"{d.value} is not a fundamental discriminant")
    dv = d.value
    parity = dv & 1
    a_all = np.arange(1, math.isqrt(-dv // 3) + 1, dtype=np.int64)
    per_a = (a_all - parity) // 2 + 1  # b = parity, parity + 2, ..., <= a
    found = []
    for i, j in _passes(per_a, _FORM_PAIRS):
        n = per_a[i:j]
        a = np.repeat(a_all[i:j], n)
        b = parity + 2 * (np.arange(len(a)) - np.repeat(np.cumsum(n) - n, n))
        cc = b * b - dv
        ok = cc % (4 * a) == 0
        a, b, c = a[ok], b[ok], cc[ok] // (4 * a[ok])
        # imprimitive forms only occur for non-fundamental d
        ok = (c >= a) & (np.gcd(np.gcd(a, b), c) == 1)
        a, b, c = a[ok], b[ok], c[ok]
        twin = (0 < b) & (b < a) & (c > a)
        found += [np.stack([a, b, c]), np.stack([a[twin], -b[twin], c[twin]])]
    a, b, c = np.concatenate(found, axis=1)
    order = np.lexsort((b, a))
    forms = list(map(QuadForm, a[order].tolist(), b[order].tolist(), c[order].tolist()))
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


class _Presentation(NamedTuple):
    """Classes as mixed-radix vectors over walk generators x_0, ..., x_{m-1}.

    Written additively, class sum_i c_i x_i with 0 <= c_i < radix[i] sits
    at position sum_i c_i * prod(radix[:i]); the relation
    radix[i] x_i = rel[i] involves only x_0, ..., x_{i-1}.
    """

    radix: tuple[int, ...]
    rel: np.ndarray  # (m, m): row i is the vector of radix[i] x_i
    at: np.ndarray  # class index at each position
    vec: np.ndarray  # (h, m): vector of each class

    def locate(self, c: list[int]) -> int:
        """Class index of one integer vector, carried as in index but on
        Python ints."""
        c, rel = list(c), self.rel.tolist()
        pos = 0
        for i in range(len(self.radix) - 1, -1, -1):
            carry, c[i] = divmod(c[i], self.radix[i])
            for j in range(i):
                c[j] += carry * rel[i][j]
            pos = pos * self.radix[i] + c[i]
        return int(self.at[pos])

    def index(self, c: np.ndarray) -> np.ndarray:
        """Class index of each int64 vector (last axis), by carrying from
        the last component to the first; c is overwritten."""
        pos = 0
        for i in range(len(self.radix) - 1, -1, -1):
            carry, digit = np.divmod(c[..., i], self.radix[i])
            if i:
                c[..., :i] += carry[..., None] * self.rel[i, :i]
            pos = pos * self.radix[i] + digit
        return self.at[pos]


def _presentation(g: ClassGroup) -> _Presentation:
    """Walk the group with h - 1 compositions.

    Take the first class x outside the span so far, in index order, and
    extend the span by the cosets span * x^j until x^k lands in the span.
    """
    h, elements = g.h, g.elements

    def lookup(f: QuadForm) -> int:
        i = g._index.get(tuple(f))
        if i is None:
            raise InvariantViolation(f"composite {f} is not a class of {g.disc.value}")
        return i

    at = [0]  # span in position order
    pos = [-1] * h
    pos[0] = 0
    radix: list[int] = []
    landed: list[int] = []
    x = 0
    while len(at) < h:
        while pos[x] >= 0:
            x += 1
        n, fx = len(at), elements[x]
        power, i = fx, x  # x^j as a form and as a class
        while pos[i] < 0:
            for s in at[:n]:
                c = i if s == 0 else lookup(compose(elements[s], power))
                if pos[c] >= 0:
                    raise InvariantViolation(f"cosets of the span overlap at {elements[c]}")
                pos[c] = len(at)
                at.append(c)
            power = compose(power, fx)
            i = lookup(power)
        radix.append(len(at) // n)
        landed.append(pos[i])
    weights = np.cumprod([1] + radix[:-1])
    rel = np.array(landed, dtype=np.int64)[:, None] // weights % radix
    vec = np.array(pos, dtype=np.int64)[:, None] // weights % radix
    return _Presentation(tuple(radix), rel, np.array(at, dtype=np.int64), vec)


def _peel(
    p: _Presentation, sylow: list[int], q: int, times_q: list[int]
) -> list[tuple[int, int]]:
    """Cyclic basis of the q-Sylow subgroup, orders descending.

    sylow lists its classes in index order and times_q[x] is the class of
    q x.  Greedy peeling: repeatedly take the element of maximal order in
    the quotient by the span so far (the first in index order among
    ties), adjust it by earlier generators so the span splits as a direct
    sum, and extend the span.  The order search and the adjustment are
    on Python ints; the layers a generator adds are one numpy map.
    """
    in_span = [True] + [False] * (len(p.at) - 1)
    # the span: members[sum_i c_i * prod(t_0, ..., t_{i-1})] is the class
    # sum_i c_i g_i, for the generators g_i of orders t_i found so far
    members = [0]
    gens: list[tuple[int, int]] = []
    while len(members) < len(sylow):
        bound = len(sylow) // len(members)  # the order of the quotient
        best_x = best_t = best_y = -1
        for x in sylow:
            if in_span[x]:
                continue
            t, y = 1, x
            while not in_span[y]:
                y = times_q[y]
                t *= q
            if t > best_t:
                best_x, best_t, best_y = x, t, y
                if t == bound:  # no later class can beat it
                    break
        x, t, place = best_x, best_t, members.index(best_y)
        # t x lands in the span at `place`; maximality of the quotient
        # order guarantees t divides every coordinate there, so x can be
        # shifted by earlier generators to have honest order t.
        shift = p.vec[x].tolist()
        for gi, n in gens:
            place, c = divmod(place, n)
            if c % t:
                raise InvariantViolation("abelian basis peeling invariant violated")
            shift = [a - c // t * b for a, b in zip(shift, p.vec[gi].tolist())]
        adj = p.locate(shift)
        gens.append((adj, t))
        # layers j = 1, ..., t - 1 of the new span: the old span plus j adj
        steps = np.arange(1, t, dtype=np.int64)[:, None, None] * p.vec[adj]
        layers = p.index(p.vec[members] + steps).ravel().tolist()
        for c in layers:
            if in_span[c]:
                raise InvariantViolation(f"span of {len(members) * t} classes has repeats")
            in_span[c] = True
        members += layers
    return gens  # orders descending by construction


def group_structure(g: ClassGroup) -> ClassGroup:
    """Fill basis (invariant factors, ascending) and the coords table.

    One walk of h - 1 compositions presents the group.  Each Sylow
    subgroup and its times-q map come from one numpy map of the whole
    group; the peeling, the CRT merge of the Sylow bases and the
    generators' vectors are Python int steps; the coordinate table is one
    more whole-group map.  ClassGroup calls this on first read of basis,
    coords or orders(); calling it directly forces the computation, and
    again does nothing.
    """
    if g._basis is not None:
        return g
    p = _presentation(g)
    primes = sorted(_factorize(g.h).items())
    # rows 2i and 2i + 1: (h / q^e) x, onto the q-Sylow subgroup, and q x
    scales = np.array([k for q, e in primes for k in (g.h // q**e, q)], dtype=np.int64)
    scaled = p.index(p.vec * scales[:, None, None]).tolist()
    per_prime = [
        _peel(p, sorted(set(scaled[2 * i])), q, scaled[2 * i + 1])
        for i, (q, _) in enumerate(primes)
    ]
    width = max(len(comp) for comp in per_prime)
    # j-th largest cyclic factors across primes multiply (CRT) into the
    # j-th largest invariant factor
    factors: list[tuple[int, int]] = []
    for j in range(width):
        gen, order = [0] * len(p.radix), 1
        for comp in per_prime:
            if j < len(comp):
                gi, n = comp[j]
                gen = [a + b for a, b in zip(gen, p.vec[gi].tolist())]
                order *= n
        factors.append((p.locate(gen), order))
    factors.reverse()  # ascending: n_1 | n_2 | ... | n_k
    # row r of grid: the coordinates of C-order position r on the grid
    grid = np.indices([n for _, n in factors]).reshape(len(factors), -1).T
    at = p.index(grid @ p.vec[[gen for gen, _ in factors]])
    if len(at) != g.h or len(set(at.tolist())) != g.h:
        raise InvariantViolation("basis does not span the class group")
    coords = np.empty_like(grid)
    coords[at] = grid
    g._basis = tuple(factors)
    g._coords = tuple(zip(*coords.T.tolist()))
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
