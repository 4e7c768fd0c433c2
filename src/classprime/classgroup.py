"""Form class groups of imaginary quadratic discriminants.

Enumerates the reduced forms of discriminants and computes each group's
abelian structure (invariant factors n_1 | n_2 | ... with generators and
a full coordinate table); stats.psi_by_char transforms over its grid,
and tests/oracles.py holds the per-character reference.  Both steps run
for many discriminants at once: enumerate_groups tests the (a, b) pairs
of all of them in shared numpy passes, and group_structures walks the
groups in lockstep, one array composition per round for all of them.  A
single group is the batch of one: enumerate_reduced_forms, and
group_structure, which ClassGroup calls the first time the structure is
read.  Element order is lexicographic on (a, b, c); index 0 is always
the principal class.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Generator, Iterator, NamedTuple, Optional

import numpy as np

from .qform import (
    Discriminant,
    InvariantViolation,
    QuadForm,
    _factorize,
    NotADiscriminant,
    _reduce_triple,
    identity_form,
    validate_discriminant,
)


class NotFundamental(ValueError):
    """Discriminant is valid but not fundamental; dirichlet-check raises it."""


class InvalidIdealBasis(ValueError):
    """(a, b) does not describe an ideal: a < 1 or 4a does not divide b^2 - D."""


@dataclass(eq=False)  # == and hash by identity: an array field cannot compare
class ClassGroup:
    disc: Discriminant
    # (3, h) int64 a, b, c of the classes' reduced forms, sorted by (a, b): principal first
    abc: np.ndarray
    # filled by group_structure() on first read of basis, coords, orders(),
    # position or a coordinate step
    _basis: Optional[tuple[tuple[int, int], ...]] = field(default=None, init=False, repr=False)
    _coords: Optional[tuple[tuple[int, ...], ...]] = field(default=None, init=False, repr=False)
    _position: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _class_at: Optional[list[int]] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.abc = _frozen(np.array(self.abc, dtype=np.int64))
        if self.abc.ndim != 2 or len(self.abc) != 3:
            raise ValueError(f"abc must have shape (3, h), not {self.abc.shape}")
        if self.h == 1:  # the trivial group: no generators, one empty coordinate vector
            self._basis, self._coords = (), ((),)
            self._position, self._class_at = _frozen(np.zeros(1, dtype=np.intp)), [0]

    @cached_property
    def h(self) -> int:
        return self.abc.shape[1]

    @property
    def nonfundamental(self) -> bool:
        return not self.disc.fundamental

    @cached_property
    def elements(self) -> tuple[QuadForm, ...]:
        """The classes' reduced forms as QuadForm objects, built on first read."""
        return tuple(map(QuadForm, *self.abc.tolist()))

    @cached_property
    def _index(self) -> dict:
        """Class index of each (a, b, c) tuple; a QuadForm, a tuple, finds it too."""
        return {f: i for i, f in enumerate(zip(*self.abc.tolist()))}

    def _structured(self) -> ClassGroup:
        if self._basis is None:
            group_structure(self)
        return self

    @property
    def basis(self) -> tuple[tuple[int, int], ...]:
        """(element index, order) per invariant factor, orders ascending n_1 | n_2 | ..."""
        return self._structured()._basis

    @property
    def coords(self) -> tuple[tuple[int, ...], ...]:
        """Exponents of each class against the basis."""
        return self._structured()._coords

    @property
    def position(self) -> np.ndarray:
        """C-order position of each class on the grid of shape orders(),
        which is (1,) for the trivial group."""
        return self._structured()._position

    @cached_property
    def _keys(self) -> np.ndarray:
        """a * 2^32 + b of each element, ascending as the elements are."""
        a, b, _ = self.abc
        return (a << 32) + b

    def _permutation(self, what: str, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Class index of each of h reduced forms (a, b, c) that must be
        the elements in some order: sorted by their (a, b) keys they are
        the elements, c included.  Otherwise InvariantViolation, naming a
        form that is not an element if there is one."""
        keys = (a << 32) + b
        order = np.argsort(keys)
        if np.array_equal(keys[order], self._keys) and np.array_equal(c[order], self.abc[2]):
            idx = np.empty(self.h, dtype=np.int64)
            idx[order] = np.arange(self.h)
            return idx
        i = np.minimum(np.searchsorted(self._keys, keys), self.h - 1)
        missing = np.flatnonzero((self._keys[i] != keys) | (self.abc[2, i] != c))
        if missing.size:
            k = missing[0]
            f = QuadForm(int(a[k]), int(b[k]), int(c[k]))
            raise InvariantViolation(f"{what} {f} is not a class of {self.disc.value}")
        raise InvariantViolation(f"{what}s of the classes repeat a class of {self.disc.value}")

    @cached_property
    def inverse(self) -> np.ndarray:
        """Index of each class's inverse, the class of (a, -b, c): that
        form itself is reduced unless b = 0, b = a or a = c, where the
        class is its own inverse."""
        a, b, c = self.abc
        twin = (b != 0) & (b != a) & (a != c)
        return _frozen(self._permutation("inverse", a, np.where(twin, -b, b), c))

    @cached_property
    def box_forms(self) -> np.ndarray:
        """(a, b, c, index) of each element with b >= 0, one per class up
        to inversion: the forms whose values arith.interval_classes marks."""
        rows = np.vstack([self.abc, np.arange(self.h, dtype=np.int64)])
        return _frozen(rows[:, rows[1] >= 0].T.copy())

    def index_of(self, f: QuadForm) -> int:
        if f not in self._index:
            raise KeyError(f"{f} is not a reduced form of discriminant {self.disc.value}")
        return self._index[f]

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


def _frozen(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


# (a, b) pairs per array pass of enumerate_groups
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


def _pair_count(dv: int) -> int:
    """The (a, b) pairs enumerate_groups tests for discriminant dv: the
    sum over 1 <= a <= sqrt(|dv|/3) of (a - dv mod 2) // 2 + 1."""
    top = math.isqrt(-dv // 3)
    return (top + 1) ** 2 // 4 if dv & 1 else top + top * top // 4


def batches(discs: list) -> Iterator[list]:
    """discs in consecutive batches of at most _FORM_PAIRS (a, b) pairs in
    all, so that enumerate_groups tests a batch in one pass, or of one
    discriminant with more alone."""
    sizes = np.array([_pair_count(d) for d in discs], dtype=np.int64)
    for i, j in _passes(sizes, _FORM_PAIRS):
        yield discs[i:j]


def enumerate_groups(discs) -> list:
    """The class group skeleton of each discriminant d of discs, in order:
    all primitive reduced forms of d as a ClassGroup, or the exception
    that fails d (NotADiscriminant, or InvariantViolation when the
    identity form is missing).

    d is any valid discriminant; g.nonfundamental says which kind.  The
    pairs (a, b) with 1 <= a <= sqrt(|d|/3), 0 <= b <= a and b = d (mod 2)
    of every d are tested together in numpy passes of _FORM_PAIRS, each
    pair with a column naming its d: 4a | b^2 - d (in float64), c >= a
    and gcd(a, b, c) = 1, with the twin (a, -b, c) unless |b| = a or a = c.
    """
    out: list = []
    valid: list[tuple[int, Discriminant]] = []  # (place in out, d)
    for d in discs:
        try:
            d = d if isinstance(d, Discriminant) else validate_discriminant(d)
            valid.append((len(out), d))
        except NotADiscriminant as exc:
            d = exc
        out.append(d)
    if not valid:
        return out
    dvs = np.array([d.value for _, d in valid], dtype=np.int64)
    tops = np.array([math.isqrt(-d.value // 3) for _, d in valid], dtype=np.int64)
    # one row per (d, a): the place of d in valid, and a
    row_k = np.repeat(np.arange(len(valid)), tops)
    row_a = np.arange(1, len(row_k) + 1) - np.repeat(np.cumsum(tops) - tops, tops)
    per_a = (row_a - (dvs[row_k] & 1)) // 2 + 1  # b = d mod 2, d mod 2 + 2, ..., <= a
    found = []
    for i, j in _passes(per_a, _FORM_PAIRS):
        n, ks = per_a[i:j], row_k[i:j]
        ends = np.cumsum(n)
        a = np.repeat(row_a[i:j], n)
        dv = dvs[ks[0]] if ks[0] == ks[-1] else np.repeat(dvs[ks], n)  # d of each pair
        b = (dv & 1) + 2 * (np.arange(len(a)) - np.repeat(ends - n, n))
        # 4a | b^2 - d tested in float64, exactly: b^2 - d <= 4|d|/3 < 2^53,
        # so b^2 - d, 4a and an integer quotient are exact doubles, and
        # division rounds correctly; a non-multiple's quotient lies at
        # least 1/(4a) from every integer, more than its rounding error
        # of at most (b^2 - d)/(4a) 2^-53
        q = (b * b - dv) / (4 * a)
        at = np.flatnonzero(q == np.floor(q))
        a, b, c = a[at], b[at], q[at].astype(np.int64)
        k = ks[np.searchsorted(ends, at, side="right")]  # the place of d of each form
        # imprimitive forms only occur for non-fundamental d
        ok = (c >= a) & (np.gcd(np.gcd(a, b), c) == 1)
        k, a, b, c = k[ok], a[ok], b[ok], c[ok]
        twin = (0 < b) & (b < a) & (c > a)
        found += [np.stack([k, a, b, c]), np.stack([k[twin], a[twin], -b[twin], c[twin]])]
    kabc = np.concatenate(found, axis=1)
    kabc = kabc[:, np.lexsort((kabc[2], kabc[1], kabc[0]))]
    starts = np.searchsorted(kabc[0], np.arange(len(valid) + 1)).tolist()
    for (place, d), lo, hi in zip(valid, starts, starts[1:]):
        abc = kabc[1:, lo:hi]
        if not abc.size or tuple(abc[:, 0].tolist()) != identity_form(d.value):
            out[place] = InvariantViolation(f"identity form missing from the forms of {d.value}")
        else:
            out[place] = ClassGroup(d, abc)
    return out


def enumerate_reduced_forms(d) -> ClassGroup:
    """The class group skeleton of d: enumerate_groups for d alone, whose
    exception is raised."""
    [g] = enumerate_groups([d])
    if isinstance(g, Exception):
        raise g
    return g


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


def _bezout(x: np.ndarray, m) -> tuple[np.ndarray, np.ndarray]:
    """(gcd(x, m), u) with u x = gcd(x, m) (mod m), elementwise, for
    0 <= x < m: Euclid on (m, x), keeping the coefficients of x."""
    r0, r1 = np.broadcast_to(m, x.shape).copy(), x.copy()
    s0, s1 = np.zeros_like(x), np.ones_like(x)
    while True:
        live = r1 != 0
        if not live.any():
            return r0, s0
        q = r0 // np.where(live, r1, 1)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - q * r1, 0)
        s0, s1 = np.where(live, s1, s0), np.where(live, s0 - q * s1, s1)


def _reduce_arrays(dv: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Reduced (a, b, c) of each form (a, b, .) of discriminant dv (one
    per form): move b into (-a, a], swap a and c where a > c, and repeat
    on the swapped."""
    a, b = a.copy(), b.copy()
    c = np.empty_like(a)
    todo = np.arange(len(a))
    while todo.size:
        ta, tb = a[todo], b[todo]
        tb = tb + 2 * ((ta - tb) // (2 * ta)) * ta
        tc = (tb * tb - dv[todo]) // (4 * ta)
        swap = ta > tc
        a[todo] = np.where(swap, tc, ta)
        b[todo] = np.where(swap, -tb, tb)
        c[todo] = np.where(swap, ta, tc)
        todo = todo[swap]
    b[(a == c) & (b < 0)] *= -1
    return a, b, c


def _compose_maps(pairs: list) -> list:
    """For each (g, x) of pairs, the class of s x for every class s of g,
    a list by class index, or the InvariantViolation that fails it: a
    composite that is not a class of g, named as g alone names it.

    One array pass over the forms of every pair: Dirichlet composition
    (Cohen, A Course in Computational Algebraic Number Theory, Algorithm
    5.4.7) of each form (a, b, c) of g with x's form (ell, bx, cx), in
    int64 with ell and D per form, then reduction, and lookup by (pair,
    a, b) keys: sorted by them, the composites of a pair must be g's
    classes.  int64 holds for |D| < 2^31: a reduced form has a <=
    sqrt(|D|/3) <= 26755, so the composite has a3 = ell a / d1^2 <=
    7.2e8, |b3| <= a + 2 ell a and b3^2 < 2.1e18, and the products that
    make r have factors below a + ell.
    """
    hs = [g.h for g, _ in pairs]
    first = np.cumsum([0] + hs[:-1])  # each pair's first form
    a, b, c = np.concatenate([g.abc for g, _ in pairs], axis=1)
    ell, bx = np.repeat(np.array([g.abc[:2, x] for g, x in pairs]).T, hs, axis=1)
    dv = np.repeat([g.disc.value for g, _ in pairs], hs)
    s = (b + bx) // 2  # b = bx (mod 2)
    # y1 a = d (mod ell) for d = gcd(a, ell)
    d, y1 = _bezout(a % ell, ell)
    # x2 s + v d = d1 = gcd(s, d), so x2 = 0 and d1 = 1 where d = 1
    d1, x2 = np.ones_like(a), np.zeros_like(a)
    k = np.flatnonzero(d > 1)
    d1[k], x2[k] = _bezout(s[k] % d[k], d[k])
    y2 = (x2 * s - d1) // d  # -v
    v1, v2 = ell // d1, a // d1
    r = ((y1 * y2 % v1) * ((b - s) % v1) - x2 * (c % v1)) % v1
    a3, b3 = v1 * v2, b + 2 * v2 * r
    # a pair with a composite that is not integral fails; its forms are
    # reduced as they were, since that composite has no reduction
    broken = np.logical_or.reduceat((b3 * b3 - dv) % (4 * a3) != 0, first)
    if broken.any():
        keep = np.repeat(broken, hs)
        a3, b3 = np.where(keep, a, a3), np.where(keep, b, b3)
    a3, b3, c3 = _reduce_arrays(dv, a3, b3)
    keys = (a3 << 32) + b3
    order = np.lexsort((keys, np.repeat(np.arange(len(pairs)), hs)))
    # the classes, pair by pair, are sorted by their keys (a << 32) + b
    found = (keys[order] == (a << 32) + b) & (c3[order] == c)
    whole = np.logical_and.reduceat(found, first)
    idx = np.empty_like(keys)
    idx[order] = np.arange(len(keys)) - np.repeat(first, hs)
    maps = idx.tolist()
    out: list = []
    for (g, x), lo, h, bad, ok in zip(pairs, first.tolist(), hs, broken, whole):
        if bad:
            f = QuadForm(*g.abc[:, x].tolist())
            out.append(InvariantViolation(f"composition with {f} is not integral"))
        elif ok:
            out.append(maps[lo : lo + h])
        else:
            try:
                forms = (v[lo : lo + h] for v in (a3, b3, c3))
                out.append(g._permutation("composite", *forms).tolist())
            except InvariantViolation as exc:
                out.append(exc)
    return out


# A walk yields its walk generators, one at a time, and is sent for each
# x the class of s x for every class s, a list by class index; it returns
# the group's presentation.
_Walk = Generator[int, list, _Presentation]


def _walk(g: ClassGroup) -> _Walk:
    """The walk that presents g, one multiplication by a walk generator per
    class.

    Take the first class x outside the span so far, in index order, and
    extend the span by the cosets span * x^j, j = 1, ..., k - 1, where
    x^k is the first power of x in the span.
    """
    h = g.h
    at = [0]  # span in position order
    pos = [-1] * h
    pos[0] = 0
    radix: list[int] = []
    landed: list[int] = []
    x = 0
    while len(at) < h:
        x = pos.index(-1, x)
        n = len(at)
        times_x = yield x
        p, powers = x, []  # x, ..., x^(k-1), then p = x^k
        for _ in range(h // n - 1):  # k n <= h
            powers.append(p)
            p = times_x[p]
            if pos[p] >= 0:
                break
        else:
            raise InvariantViolation(f"cosets of the span overlap at {g.elements[p]}")

        def orbit(s: int) -> list[int]:  # s x, ..., s x^(k-1)
            out = []
            for _ in powers:
                s = times_x[s]
                out.append(s)
            return out

        # coset j lists s x^j for the span's s in position order
        cosets = list(itertools.chain.from_iterable(zip(powers, *map(orbit, at[1:]))))
        for place, c in enumerate(cosets, n):
            if pos[c] >= 0:
                raise InvariantViolation(f"cosets of the span overlap at {g.elements[c]}")
            pos[c] = place
        at += cosets
        radix.append(len(powers) + 1)
        landed.append(pos[p])
    weights = np.cumprod([1] + radix[:-1])
    rel = np.array(landed, dtype=np.int64)[:, None] // weights % radix
    vec = np.array(pos, dtype=np.int64)[:, None] // weights % radix
    return _Presentation(tuple(radix), rel, np.array(at, dtype=np.int64), vec)


def _presentations(groups: list) -> list:
    """The presentation of each group of groups, or the InvariantViolation
    that fails it, from their walks run in lockstep: round k composes,
    in one _compose_maps pass, every class of each group still walking
    with that group's k-th walk generator.  So the rounds number the most
    walk generators of any group, and a failure ends its own walk only."""
    out: list = [None] * len(groups)
    asks: dict[int, tuple[_Walk, int]] = {}  # place -> (walk, its next generator)

    def advance(i: int, walk: _Walk, arg) -> None:
        try:
            asks[i] = (walk, walk.send(arg))
        except StopIteration as stop:
            out[i] = stop.value
        except InvariantViolation as exc:
            out[i] = exc

    for i, g in enumerate(groups):
        advance(i, _walk(g), None)
    while asks:
        live = list(asks.items())
        asks.clear()
        maps = _compose_maps([(groups[i], x) for i, (_, x) in live])
        for (i, (walk, _)), times_x in zip(live, maps):
            if isinstance(times_x, InvariantViolation):
                out[i] = times_x
            else:
                advance(i, walk, times_x)
    return out


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


def group_structures(groups: list) -> list:
    """group_structure of each group of groups, in order, with one lockstep
    walk for all of them (_presentations): the group, filled, or the
    InvariantViolation that fails it, which fails that group only."""
    out = list(groups)
    todo = [i for i, g in enumerate(groups) if g._basis is None]
    for i, p in zip(todo, _presentations([groups[i] for i in todo])):
        if not isinstance(p, _Presentation):
            out[i] = p
            continue
        try:
            _fill_structure(groups[i], p)
        except InvariantViolation as exc:
            out[i] = exc
    return out


def group_structure(g: ClassGroup) -> ClassGroup:
    """Fill basis (invariant factors, ascending), the coords table and
    each class's grid position: group_structures for g alone, whose
    exception is raised.  ClassGroup calls this on first read of basis,
    coords, orders() or position; calling it directly forces the
    computation, and again does nothing.
    """
    [res] = group_structures([g])
    if isinstance(res, Exception):
        raise res
    return res


def _fill_structure(g: ClassGroup, p: _Presentation) -> None:
    """Fill g's structure from its presentation p.

    Each Sylow subgroup and its times-q map come from one numpy map of
    the whole group; the peeling, the CRT merge of the Sylow bases and
    the generators' vectors are Python int steps; the coordinate grid is
    one more whole-group map, and its inverse is the grid position.
    """
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
    position = np.empty(g.h, dtype=np.intp)
    position[at] = np.arange(g.h)
    g._basis = tuple(factors)
    g._coords = tuple(zip(*coords.T.tolist()))
    g._position, g._class_at = _frozen(position), at.tolist()


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
