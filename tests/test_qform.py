import math

import pytest
from hypothesis import given, settings, strategies as st

from classprime.qform import (
    DiscMismatch,
    NotADiscriminant,
    QuadForm,
    compose,
    identity_form,
    is_fundamental,
    validate_discriminant,
)
from oracles import evaluate, is_reduced, opposite, power, reduce, reduce_with_transform


def test_validate_rejects_nonnegative():
    for v in (0, 1, 4, -1, -2, -5, -6):
        with pytest.raises(NotADiscriminant):
            validate_discriminant(v)


def test_validate_accepts_minimal_discriminants():
    assert validate_discriminant(-3) == (-3, True)
    assert validate_discriminant(-4) == (-4, True)
    assert validate_discriminant(-7).fundamental
    assert not validate_discriminant(-12).fundamental  # -12 = 4*(-3)
    assert not validate_discriminant(-27).fundamental  # 9 | 27
    assert validate_discriminant(-8).fundamental
    assert not validate_discriminant(-32).fundamental


def test_is_fundamental_spot_values():
    # -d squarefree, d = 1 mod 4
    assert is_fundamental(-15) and is_fundamental(-23) and is_fundamental(-10007)
    assert not is_fundamental(-9) and not is_fundamental(-75)
    # d = 4m with m = 2, 3 mod 4 squarefree
    assert is_fundamental(-20) and is_fundamental(-84)
    assert not is_fundamental(-16) and not is_fundamental(-100)


def test_identity_form():
    assert identity_form(-23) == QuadForm(1, 1, 6)
    assert identity_form(-4) == QuadForm(1, 0, 1)
    assert identity_form(-163) == QuadForm(1, 1, 41)
    assert identity_form(validate_discriminant(-84)) == QuadForm(1, 0, 21)
    assert identity_form(-23).disc() == -23


def test_reduce_worked_examples():
    # two chains traced by hand: a translate-swap chain and a swap-first one
    assert reduce(QuadForm(23, 23, 6)) == QuadForm(1, 1, 6)
    assert reduce(QuadForm(13, 9, 2)) == QuadForm(2, -1, 3)
    assert reduce(QuadForm(2, 1, 3)) == QuadForm(2, 1, 3)
    # boundary conventions: b >= 0 when |b| = a or a = c
    assert reduce(QuadForm(2, -2, 3)) == QuadForm(2, 2, 3)
    assert reduce(QuadForm(5, -2, 5)) == QuadForm(5, 2, 5)


def test_is_reduced_boundary():
    assert is_reduced(QuadForm(1, 1, 6))
    assert is_reduced(QuadForm(2, -1, 3))
    assert not is_reduced(QuadForm(2, -2, 3))
    assert not is_reduced(QuadForm(5, -2, 5))
    assert not is_reduced(QuadForm(3, 4, 5))


@st.composite
def forms(draw, max_a=60):
    a = draw(st.integers(1, max_a))
    b = draw(st.integers(-3 * max_a, 3 * max_a))
    # pick c large enough for a negative discriminant
    cmin = b * b // (4 * a) + 1
    c = draw(st.integers(cmin, cmin + 2 * max_a))
    return QuadForm(a, b, c)


@settings(max_examples=200)
@given(forms())
def test_reduce_output_is_reduced_same_disc(f):
    g = reduce(f)
    assert is_reduced(g)
    assert g.disc() == f.disc()


@settings(max_examples=200)
@given(forms(), st.integers(-5, 5), st.integers(-5, 5))
def test_transform_preserves_values(f, x, y):
    g, (p, q, r, s) = reduce_with_transform(f)
    assert p * s - q * r == 1
    assert evaluate(g, x, y) == evaluate(f, p * x + q * y, r * x + s * y)


def _all_reduced(d):
    # brute enumeration, independent of the library's enumerator
    out = []
    for a in range(1, math.isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                out.append(QuadForm(a, b, c))
    return sorted(out)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([-23, -47, -71, -84, -163, -407]), st.data())
def test_reduction_is_constant_on_sl2_orbits(d, data):
    """Random SL2(Z) word applied to a reduced form reduces back to it."""
    start = data.draw(st.sampled_from(_all_reduced(d)))
    a, b, c = start
    # apply g(x,y) = f(px+qy, rx+sy) for a word in S and T
    p, q, r, s = 1, 0, 0, 1
    for step in data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6)):
        # T^step then S
        p, q = p * 1 + q * 0, p * step + q * 1
        r, s = r * 1 + s * 0, r * step + s * 1
        p, q, r, s = q, -p, s, -r
    twisted = QuadForm(
        evaluate(start, p, r),
        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
        evaluate(start, q, s),
    )
    assert twisted.disc() == d
    assert reduce(twisted) == start


def test_compose_worked_examples():
    c1, c2 = QuadForm(2, 1, 3), QuadForm(2, -1, 3)
    e = identity_form(-23)
    assert compose(c1, c1) == c2
    assert compose(c1, c2) == e
    assert compose(e, c1) == c1
    assert compose(QuadForm(2, 2, 11), QuadForm(2, 2, 11)) == QuadForm(1, 0, 21)


def test_compose_rejects_disc_mismatch():
    with pytest.raises(DiscMismatch):
        compose(QuadForm(1, 1, 6), QuadForm(1, 0, 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([-23, -47, -84, -71, -407]), st.data())
def test_compose_group_laws(d, data):
    cls = _all_reduced(d)
    f = data.draw(st.sampled_from(cls))
    g = data.draw(st.sampled_from(cls))
    k = data.draw(st.sampled_from(cls))
    e = identity_form(d)
    assert compose(f, g) == compose(g, f)
    assert compose(compose(f, g), k) == compose(f, compose(g, k))
    assert compose(f, e) == f
    assert compose(f, opposite(f)) == e


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([-23, -47, -84, -71]), st.data(), st.integers(-9, 9))
def test_power_matches_repeated_compose(d, data, k):
    f = data.draw(st.sampled_from(_all_reduced(d)))
    acc = identity_form(d)
    base = f if k >= 0 else opposite(f)
    for _ in range(abs(k)):
        acc = compose(acc, base)
    assert power(f, k) == acc


def test_opposite_of_ambiguous_forms_is_self():
    # boundary classes are 2-torsion
    assert opposite(QuadForm(2, 2, 3)) == QuadForm(2, 2, 3)
    assert opposite(QuadForm(5, 2, 5)) == QuadForm(5, 2, 5)
    assert opposite(QuadForm(1, 1, 6)) == QuadForm(1, 1, 6)
