"""Exact arithmetic of positive definite integral binary quadratic forms.

A form (a, b, c) stands for a*x^2 + b*x*y + c*y^2 with a > 0 and negative
discriminant b^2 - 4ac.  Reduction of a triple computes the unique
canonical representative of each proper equivalence class; composition
implements the class group law.  Everything runs on Python integers, so
there is no overflow to worry about, only time.  The form-level routes
that only the tests read (reduction of a QuadForm, with and without its
transform, evaluation, inverse and power) are in tests/oracles.py.
"""
from __future__ import annotations

import math
from typing import Iterator, NamedTuple


class NotADiscriminant(ValueError):
    """Value is not a negative discriminant (>= 0, or not 0/1 mod 4)."""


class DiscMismatch(ValueError):
    """Operands have different discriminants."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed: a bug, not bad input."""


class Discriminant(NamedTuple):
    value: int
    fundamental: bool


class QuadForm(NamedTuple):
    a: int
    b: int
    c: int

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def _factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by trial division; callers stay at desk
    scale, so isqrt(n) is small."""
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


def _squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in _factorize(abs(n)).values())


def is_fundamental(d: int) -> bool:
    """True when d is a fundamental discriminant (of a quadratic field)."""
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def fundamental_discriminants(lo: int, hi: int) -> Iterator[int]:
    """The negative fundamental discriminants d with lo <= d <= hi, in
    decreasing d."""
    for d in range(min(hi, -1), lo - 1, -1):
        if is_fundamental(d):
            yield d


def validate_discriminant(d: int) -> Discriminant:
    """Check d < 0 and d = 0 or 1 mod 4; tag whether it is fundamental."""
    if d >= 0 or d % 4 not in (0, 1):
        raise NotADiscriminant(f"{d} is not a negative discriminant")
    return Discriminant(d, is_fundamental(d))


def identity_form(d) -> QuadForm:
    """Principal form of discriminant d: (1, b0, c0) with b0 = d mod 2."""
    dv = d.value if isinstance(d, Discriminant) else d
    b0 = dv % 2
    return QuadForm(1, b0, (b0 * b0 - dv) // 4)


def _check_posdef(f: QuadForm) -> None:
    if f.a <= 0:
        raise ValueError(f"form {f} is not positive definite (a <= 0)")
    if f.disc() >= 0:
        raise ValueError(f"form {f} has non-negative discriminant")


def _reduce_triple(a: int, b: int, c: int) -> tuple[int, int, int]:
    # hot path used by prime classification; plain ints in, plain ints out
    while True:
        if -a < b <= a:
            if a > c:
                a, b, c = c, -b, a
                continue
            if a == c and b < 0:
                b = -b
            return a, b, c
        r = (a - b) // (2 * a)
        b, c = b + 2 * r * a, a * r * r + b * r + c


def _solve_congruence(a: int, b: int, m: int) -> tuple[int, int]:
    # smallest x >= 0 with a*x = b (mod m), plus the solution period m//g
    g = math.gcd(a, m)
    if b % g:
        raise ArithmeticError(f"{a}*x = {b} (mod {m}) has no solution")
    m_ = m // g
    x = (b // g) * pow(a // g, -1, m_) % m_ if m_ > 1 else 0
    return x, m_

def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Gauss composition of classes, returned reduced.

    Dirichlet-style: take w = gcd(a1, a2, (b1+b2)/2) and solve the two
    linear congruences that pin down the composed form, then reduce.
    """
    if f.disc() != g.disc():
        raise DiscMismatch(f"disc {f.disc()} != {g.disc()}")
    _check_posdef(f)
    _check_posdef(g)
    a1, b1, c1 = f
    a2, b2, c2 = g
    s0 = (b1 + b2) // 2
    h0 = (b2 - b1) // 2
    w = math.gcd(math.gcd(a1, a2), s0)
    s = a1 // w
    t = a2 // w
    u = s0 // w
    st = s * t
    k0, p1 = _solve_congruence((t * u) % st, (h0 * u + s * c1) % st, st)
    n0, _ = _solve_congruence((t * p1) % s, (h0 - t * k0) % s, s) if s > 1 else (0, 1)
    k = k0 + p1 * n0
    l, lr = divmod(t * k - h0, s)
    m, mr = divmod(t * u * k - h0 * u - s * c1, st)
    if lr or mr:
        raise InvariantViolation(f"composition of {f} and {g} is not integral")
    a3 = st
    b3 = w * u - (k * t + l * s)
    c3 = k * l - w * m
    return QuadForm(*_reduce_triple(a3, b3, c3))

