import math

import numpy as np
import pytest

from classprime.arith import l_one_chi
from classprime.classgroup import ClassGroup, enumerate_reduced_forms, group_structure
from classprime.heegner import (
    coefficient_bound_fraction,
    cramer_class_number_pairing,
    cramer_prediction,
    heegner_point,
    heegner_points,
    repulsion_report,
)
from classprime.qform import InvariantViolation, validate_discriminant
from classprime.stats import least_primes


def _group(d):
    return group_structure(enumerate_reduced_forms(d))


def test_heegner_point_values():
    g = _group(-23)
    z0 = heegner_point(g, 0)
    assert z0.re == pytest.approx(-0.5)
    assert z0.im == pytest.approx(math.sqrt(23) / 2)
    z1 = heegner_point(g, g.index_of(g.elements[1]))
    assert z1.im == pytest.approx(math.sqrt(23) / 4)


def test_points_lie_in_fundamental_domain():
    for d in (-23, -84, -479, -3299):
        g = _group(d)
        re, im = heegner_points(g)
        assert len(re) == len(im) == g.h
        assert np.all(np.abs(re) <= 0.5 + 1e-12)
        assert np.all(im >= math.sqrt(3) / 2 - 1e-12)
        # |z| >= 1 on the standard fundamental domain
        assert np.all(re * re + im * im >= 1 - 1e-9)


def test_points_match_heegner_point():
    g = _group(-340340)  # 16 classes with b = 0, whose re must be 0, not -0
    re, im = heegner_points(g)
    for i, f in enumerate(g.elements):
        z = heegner_point(g, i)
        assert (z.class_index, z.a, z.b, z.c) == (i, *f)
        assert (z.re, z.im) == (re[i], im[i]) == (-f.b / (2 * f.a), math.sqrt(340340) / (2 * f.a))
        assert math.copysign(1.0, re[i]) == math.copysign(1.0, -f.b / (2 * f.a))
    assert np.count_nonzero(g.abc[1] == 0) == 16


def test_point_outside_fundamental_domain_raises():
    # (5, 9, 5) has discriminant -19 but is not reduced: re = -0.9
    g = ClassGroup(validate_discriminant(-19), [[5], [9], [5]])
    with pytest.raises(InvariantViolation, match=r"\(5,9,5\)"):
        heegner_points(g)
    with pytest.raises(InvariantViolation, match=r"\(5,9,5\)"):
        heegner_point(g, 0)


def test_height_determined_by_a():
    g = _group(-479)
    sd = math.sqrt(479)
    for i, f in enumerate(g.elements):
        assert heegner_point(g, i).im == pytest.approx(sd / (2 * f.a))
    # principal class always has the highest point
    ims = heegner_points(g).im
    assert max(ims) == ims[0]


def test_coefficient_bound_fraction():
    g = _group(-23)
    # forms: (1,1,6), (2,+-1,3); max coeff 6 and 3, sqrt(23) = 4.79...
    assert coefficient_bound_fraction(g, 1.0) == pytest.approx(2 / 3)
    assert coefficient_bound_fraction(g, 2.0) == 1.0
    assert coefficient_bound_fraction(g, 0.1) == 0.0


def test_cramer_prediction_consistency():
    # sqrt(|D|) L(1,chi) = (2 pi / w) h makes the two routes agree
    for d in (-23, -84, -479):
        g = _group(d)
        est = l_one_chi(d)
        via_l = cramer_prediction(g, 1.3, est.value)
        via_h, const = cramer_class_number_pairing(g, 1.3)
        assert const == pytest.approx(2 * math.pi / 2)
        assert via_l == pytest.approx(via_h, rel=1e-4)


def test_pairing_constant_uses_unit_count():
    g3 = _group(-3)
    _, c3 = cramer_class_number_pairing(g3, 1.0)
    assert c3 == pytest.approx(2 * math.pi / 6)
    g4 = _group(-4)
    _, c4 = cramer_class_number_pairing(g4, 1.0)
    assert c4 == pytest.approx(2 * math.pi / 4)


def test_repulsion_report_minus23():
    g = _group(-23)
    rep = repulsion_report(g, least_primes(g, 1000))
    assert rep.least_prime == [23, 2, 2]
    assert rep.max_least_prime == 23
    assert rep.median_least_prime == 2
    assert rep.argmax_a_class == 1  # first class of maximal a
    assert rep.bound_ok.tolist() == [True] * g.h  # p_A >= a holds everywhere
    assert rep.a.tolist() == [f.a for f in g.elements]


def test_repulsion_spread_large_group():
    import statistics

    g = _group(-3299)
    lp = least_primes(g, 10**5)
    rep = repulsion_report(g, lp)
    assert rep.max_least_prime == max(lp)
    assert rep.median_least_prime == statistics.median(lp)
    assert g.elements[rep.argmax_a_class].a == max(f.a for f in g.elements)
    assert rep.bound_ok.all()


def test_repulsion_with_missing_entries():
    g = _group(-23)
    rep = repulsion_report(g, least_primes(g, 10))  # principal class unfilled
    assert rep.least_prime[0] is None
    assert rep.max_least_prime is None  # undefined until every class reports
    assert rep.median_least_prime == 2
