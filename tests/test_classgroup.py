import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from classprime import classgroup
from classprime.classgroup import (
    Character,
    ClassGroup,
    InvalidIdealBasis,
    NotFundamental,
    characters,
    enumerate_reduced_forms,
    group_structure,
    ideal_class_of,
)
from classprime.qform import (
    InvariantViolation,
    QuadForm,
    compose,
    identity_form,
    is_fundamental,
    power,
    validate_discriminant,
)
from oracles import reference_reduced_forms, reference_structure

# class numbers h(D) recomputed independently via the analytic formula in
# test_arith; here the pinned values guard the enumerator itself
PINNED_H = {
    -3: 1,
    -4: 1,
    -7: 1,
    -8: 1,
    -11: 1,
    -15: 2,
    -20: 2,
    -23: 3,
    -47: 5,
    -71: 7,
    -84: 4,
    -163: 1,
    -407: 16,
    -479: 25,
    -10007: 77,
}


@pytest.mark.parametrize("d,h", sorted(PINNED_H.items()))
def test_class_numbers(d, h):
    assert enumerate_reduced_forms(d).h == h


def test_elements_sorted_identity_first():
    g = enumerate_reduced_forms(-23)
    assert g.elements == (QuadForm(1, 1, 6), QuadForm(2, -1, 3), QuadForm(2, 1, 3))
    assert list(g.elements) == sorted(g.elements)
    for d in (-84, -407, -10007):
        g = enumerate_reduced_forms(d)
        assert g.elements[0] == identity_form(d)
        assert list(g.elements) == sorted(g.elements)


def test_enumeration_matches_bruteforce():
    # cross-check the twin/boundary logic against a dumb double loop
    for d in (-23, -84, -163, -407, -479, -2299, -9999 + 4 * 2):
        if d % 4 not in (0, 1):
            continue
        brute = []
        for a in range(1, math.isqrt(-d // 3) + 1):
            for b in range(-a + 1, a + 1):
                if (b * b - d) % (4 * a):
                    continue
                c = (b * b - d) // (4 * a)
                if c < a or (a == c and b < 0):
                    continue
                if math.gcd(math.gcd(a, b), c) == 1:
                    brute.append(QuadForm(a, b, c))
        g = enumerate_reduced_forms(d, strict=False)
        assert g.elements == tuple(sorted(brute))


def test_strict_mode_rejects_nonfundamental():
    with pytest.raises(NotFundamental):
        enumerate_reduced_forms(-12)
    g = enumerate_reduced_forms(-12, strict=False)
    assert g.nonfundamental and g.h == 1


def test_structures():
    pinned = {-23: (3,), -84: (2, 2), -407: (16,), -479: (25,), -3299: (3, 9), -163: ()}
    for d, orders in pinned.items():
        forced = group_structure(enumerate_reduced_forms(d))
        assert forced.orders() == orders
        # a group read without the explicit call derives the same structure on first use
        lazy = enumerate_reduced_forms(d)
        assert lazy.orders() == orders
        assert lazy.basis == forced.basis
        assert lazy.coords == forced.coords
        assert group_structure(lazy) is lazy and lazy.basis == forced.basis


@pytest.mark.parametrize("d", [-23, -84, -407, -479, -3299, -10007])
def test_structure_is_consistent(d):
    g = group_structure(enumerate_reduced_forms(d))
    orders = g.orders()
    # ascending divisibility chain, product = h
    for x, y in zip(orders, orders[1:]):
        assert y % x == 0
    assert math.prod(orders) == g.h
    # coords really are coordinates: composing generator powers hits the
    # element (form composition, independent of the coords)
    one = identity_form(d)
    for i in range(g.h):
        acc = one
        for (gen, order), e in zip(g.basis, g.coords[i]):
            assert 0 <= e < order
            acc = compose(acc, power(g.elements[gen], e))
        assert acc == g.elements[i]
    # generators have the stated orders
    for gen, order in g.basis:
        assert power(g.elements[gen], order) == one
        for q in {p for p in range(2, order) if order % p == 0 and all(p % r for r in range(2, p))}:
            assert power(g.elements[gen], order // q) != one


@pytest.mark.parametrize("d", [-23, -84, -407, -3299])
def test_index_tables(d):
    g = group_structure(enumerate_reduced_forms(d))
    one = identity_form(d)
    for i, f in enumerate(g.elements):
        assert g.index_of(f) == i
        assert compose(f, g.elements[g.inverse_idx(i)]) == one
        assert compose(one, f) == f
        assert g.compose_idx(i, g.inverse_idx(i)) == 0
        assert g.elements[g.compose_idx(0, i)] == f
    with pytest.raises(KeyError):
        g.index_of(QuadForm(1, 0, 1))


def test_compose_idx_agrees_with_form_compose():
    g = group_structure(enumerate_reduced_forms(-479))
    assert g.orders() == (25,)
    for i, j in itertools.product(range(g.h), repeat=2):
        k = g.compose_idx(i, j)
        assert g.elements[k] == compose(g.elements[i], g.elements[j])


@pytest.mark.parametrize("d,orders", [(-3299, (3, 9)), (-5460, (2, 2, 2, 2))])
def test_compose_idx_agrees_with_form_compose_noncyclic(d, orders):
    g = group_structure(enumerate_reduced_forms(d, strict=False))
    assert g.orders() == orders
    for i, j in itertools.product(range(g.h), repeat=2):
        k = g.compose_idx(i, j)
        assert g.elements[k] == compose(g.elements[i], g.elements[j])


@pytest.mark.parametrize("d", [-479, -3299, -5460])
def test_power_idx_agrees_with_form_power(d):
    g = group_structure(enumerate_reduced_forms(d, strict=False))
    for i, k in itertools.product(range(g.h), range(-4, 5)):
        assert g.elements[g.power_idx(i, k)] == power(g.elements[i], k)


def test_ambiguous_class_count_matches_two_torsion():
    # order-2 elements (plus identity) = forms fixed by negation of b
    for d in (-84, -407, -479, -3299, -5460):
        g = group_structure(enumerate_reduced_forms(d, strict=False))
        two_torsion = sum(1 for i in range(g.h) if g.inverse_idx(i) == i)
        ambiguous = sum(
            1 for f in g.elements if f.b == 0 or f.b == f.a or f.a == f.c
        )
        assert two_torsion == ambiguous
        assert two_torsion == math.prod(2 if n % 2 == 0 else 1 for n in g.orders())


def test_characters_orthogonality():
    for d in (-23, -84, -479, -3299):
        g = group_structure(enumerate_reduced_forms(d))
        chars = characters(g)
        assert len(chars) == g.h
        assert chars[0].is_trivial
        vals = np.array([c.values() for c in chars])
        assert np.allclose(vals[0], 1.0)
        gram = vals @ vals.conj().T / g.h
        assert np.allclose(gram, np.eye(g.h), atol=1e-10)
        # column orthogonality too (sum over characters at fixed class)
        gram2 = vals.conj().T @ vals / g.h
        assert np.allclose(gram2, np.eye(g.h), atol=1e-10)


def test_characters_are_homomorphisms():
    g = group_structure(enumerate_reduced_forms(-3299))
    for chi in characters(g):
        for i, j in itertools.product(range(0, g.h, 5), repeat=2):
            k = g.index_of(compose(g.elements[i], g.elements[j]))
            assert cmath.isclose(
                chi.value(k), chi.value(i) * chi.value(j), abs_tol=1e-12
            )


def test_real_characters_count_equals_two_torsion():
    for d in (-23, -84, -479, -5460):
        g = group_structure(enumerate_reduced_forms(d, strict=False))
        chars = characters(g)
        real = sum(
            1
            for c in chars
            if all(abs(c.value(i).imag) < 1e-12 for i in range(g.h))
        )
        two_torsion = sum(1 for i in range(g.h) if g.inverse_idx(i) == i)
        assert real == two_torsion


def test_ideal_class_of_examples():
    g = group_structure(enumerate_reduced_forms(-23))
    assert g.elements[ideal_class_of(1, 1, g)] == QuadForm(1, 1, 6)
    assert g.elements[ideal_class_of(2, 1, g)] == QuadForm(2, 1, 3)
    assert g.elements[ideal_class_of(2, -1, g)] == QuadForm(2, -1, 3)
    # norm-13 ideal above the split prime 13: b^2 = -23 mod 52 -> b = 9
    assert (9 * 9 + 23) % 52 == 0
    assert g.elements[ideal_class_of(13, 9, g)] == QuadForm(2, -1, 3)
    # translate b by 2a: same ideal, same class
    assert ideal_class_of(13, 9 + 26, g) == ideal_class_of(13, 9, g)


def test_ideal_class_of_rejects_bad_bases():
    g = group_structure(enumerate_reduced_forms(-23))
    with pytest.raises(InvalidIdealBasis):
        ideal_class_of(0, 1, g)
    with pytest.raises(InvalidIdealBasis):
        ideal_class_of(-2, 1, g)
    with pytest.raises(InvalidIdealBasis):
        ideal_class_of(2, 0, g)  # 8 does not divide 0 - (-23)
    # non-invertible ideal in a non-maximal order: (2, 0) for D = -12
    g12 = group_structure(enumerate_reduced_forms(-12, strict=False))
    with pytest.raises(InvalidIdealBasis):
        ideal_class_of(2, 2, g12)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([-23, -84, -407]), st.data())
def test_ideal_class_is_translation_invariant(d, data):
    g = group_structure(enumerate_reduced_forms(d))
    i = data.draw(st.integers(0, g.h - 1))
    f = g.elements[i]
    t = data.draw(st.integers(-4, 4))
    assert ideal_class_of(f.a, f.b + 2 * f.a * t, g) == i


# ---------------------------------------------------------------------------
# group_structure against the composition-based reference peeling

# every fundamental D in [-2000, -3] (-84 and -420 among them), then
# 3 x 9, 2 x 2 x 2 x 2, two groups of h = 1275 and 1221 (primes-1e7 pool),
# h = 6563 (large-h, a walk of width 1), 6 x 24 (walk radix (2, 6, 6, 2))
# and 2 x 2 x 24 (a walk of width 4)
ORACLE_DISCS = [d for d in range(-2000, -2) if is_fundamental(d)] + [
    -3299, -5460, -10000019, -10022939, -10289639, -100036, -100020,
]


def test_structure_matches_reference_peeling():
    for d in ORACLE_DISCS:
        g = group_structure(enumerate_reduced_forms(d, strict=False))
        basis, coords = reference_structure(enumerate_reduced_forms(d, strict=False))
        assert g.basis == basis, d
        assert g.coords == coords, d


@pytest.mark.parametrize("d", [-3299, -5460, -10007])
def test_structure_makes_at_most_h_compositions(d, monkeypatch):
    calls = []
    real = classgroup.compose
    monkeypatch.setattr(classgroup, "compose", lambda f, k: calls.append(1) or real(f, k))

    def refuse(*args):
        raise AssertionError("group_structure uses index arithmetic of its own")

    monkeypatch.setattr(ClassGroup, "compose_idx", refuse)
    monkeypatch.setattr(ClassGroup, "power_idx", refuse)
    g = group_structure(enumerate_reduced_forms(d, strict=False))
    assert 0 < len(calls) <= g.h


def test_structure_of_a_broken_group_is_an_invariant_violation():
    # two of the three forms of D = -23: (2, -1, 3)^2 = (2, 1, 3) is missing
    forms = enumerate_reduced_forms(-23).elements[:2]
    g = ClassGroup(
        disc=validate_discriminant(-23), elements=forms, h=2,
        _index={tuple(f): i for i, f in enumerate(forms)},
    )
    with pytest.raises(InvariantViolation):
        group_structure(g)


def test_enumeration_matches_the_pair_loop(monkeypatch):
    # every discriminant down to -3000, non-fundamental ones included, and
    # one near -10^7; small passes split the pairs of one a across passes
    discs = [d for d in range(-3, -3001, -1) if d % 4 in (0, 1)] + [-10000019]
    for d in discs:
        g = classgroup.enumerate_reduced_forms(d, strict=False)
        assert list(g.elements) == reference_reduced_forms(d)
        assert all(type(f) is QuadForm and type(f.a) is int for f in g.elements[:2])
    monkeypatch.setattr(classgroup, "_FORM_PAIRS", 7)
    for d in (-3, -4, -84, -3299, -2700):
        assert list(classgroup.enumerate_reduced_forms(d, strict=False).elements) == (
            reference_reduced_forms(d)
        )
