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
"""
from __future__ import annotations

import math

import numpy as np

from classprime.arith import _simple_sieve, kronecker
from classprime.classgroup import ClassGroup, _factorize
from classprime.qform import InvariantViolation, QuadForm, compose


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
