import cmath
import functools
import math
from typing import Optional

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from classprime import arith
from classprime.classgroup import enumerate_reduced_forms, group_structure
from classprime.qform import QuadForm
from classprime import stats
from classprime.stats import (
    _BUMP_NORM,
    IdentityMismatch,
    _least_sweep,
    bump_weight,
    count_exceptional,
    exceptional_count,
    exceptional_count_primes,
    get_weight,
    indicator_weight,
    least_prime_ideal_norms,
    least_primes,
    psi_by_char,
    psi_by_class,
    psi_from_chars,
    psi_job,
    run_jobs,
    sweep_job,
    variance,
    variance_report,
    weight_eval,
)
from oracles import characters, evaluate, prime_power_class, scalar_class


def _group(d):
    return group_structure(enumerate_reduced_forms(d))


# ---------------------------------------------------------------------------
# weights

def test_weight_supports():
    bw, iw = (functools.partial(weight_eval, w) for w in (bump_weight(), indicator_weight()))
    assert bw(1.0) == 0.0 and bw(2.0) == 0.0 and bw(0.5) == 0.0 and bw(2.5) == 0.0
    assert bw(1.5) > 0
    assert iw(1.0) == 1.0 and iw(1.999) == 1.0
    assert iw(2.0) == 0.0 and iw(0.999) == 0.0  # half-open [1, 2)


def test_weight_normalization():
    for w in (bump_weight(), indicator_weight()):
        total = mpmath.quad(lambda x: weight_eval(w, float(x)), [1, 2])
        assert abs(total - 1) < 1e-12
    raw = mpmath.quad(lambda x: mpmath.e ** (-1 / ((x - 1) * (2 - x))), [1, 2])
    assert _BUMP_NORM == pytest.approx(float(1 / raw), rel=1e-14)
    assert bump_weight().normalization.hex() == "0x1.1c803140fcacbp+7"


def test_bump_value_against_mpmath():
    # independent quadrature of the unnormalized bump
    raw = mpmath.quad(lambda x: mpmath.e ** (-1 / ((x - 1) * (2 - x))), [1, 2])
    c = float(1 / raw)
    bw = functools.partial(weight_eval, bump_weight())
    for x in (1.1, 1.25, 1.5, 1.8, 1.95):
        expect = c * math.exp(-1 / ((x - 1) * (2 - x)))
        assert bw(x) == pytest.approx(expect, rel=1e-9)


def test_weights_are_weight_eval_bit_for_bit():
    rng = np.random.default_rng(3)
    edges = [0.5, 1.0, np.nextafter(1.0, 2.0), 1.5, np.nextafter(2.0, 1.0), 2.0, 2.5]
    x = np.concatenate([edges, rng.uniform(0.9, 2.1, 20000), 1e7 / rng.uniform(5e6, 1e7, 20000)])
    for w in (bump_weight(), indicator_weight()):
        want = [weight_eval(w, v) for v in x.tolist()]
        assert stats._weights(w, x).tolist() == want


def test_get_weight():
    assert get_weight("bump").kind == "bump"
    assert get_weight("indicator").kind == "indicator"
    with pytest.raises(ValueError):
        get_weight("boxcar")


def test_phi_side_vanishes():
    # the reciprocal side of the explicit formula weighs norm n by
    # w(1/(nT)); w lives on [1, 2], so that is 0 for every n >= 2, T >= 2
    for w in (bump_weight(), indicator_weight()):
        for T in (2.0, 10.0, 1e4):
            assert all(weight_eval(w, 1.0 / (n * T)) == 0.0 for n in range(2, 512))


# ---------------------------------------------------------------------------
# per-class prime sums

def test_psi_hand_oracle_minus23():
    """Window [10, 20] at D = -23, indicator weight, worked out by hand.

    Prime-power ideal norms in [10, 20): 13 (split; conjugates in both
    non-principal classes) and 16 = 2^4 (split 2; c^4 = c, c^-4 = c^-1).
    Everything else in range is inert of odd power or out of window.
    """
    g = _group(-23)
    psi = psi_by_class(g, 10.0, indicator_weight())
    expect = {
        QuadForm(1, 1, 6): 0.0,
        QuadForm(2, -1, 3): math.log(2) + math.log(13),
        QuadForm(2, 1, 3): math.log(2) + math.log(13),
    }
    for i, f in enumerate(g.elements):
        assert psi[i] == pytest.approx(expect[f], abs=1e-12)


def test_psi_empty_window():
    # D = -163: 2 and 3 inert, norm 4 falls outside [2, 4) and bump(2) = 0
    g = _group(-163)
    assert psi_by_class(g, 2.0, indicator_weight())[0] == 0.0
    assert psi_by_class(g, 2.0, bump_weight())[0] == 0.0


def test_psi_bruteforce_oracle():
    """Recompute psi_A directly from prime factorizations with sympy."""
    import sympy

    g = _group(-47)
    T = 50.0
    w = indicator_weight()
    got = psi_by_class(g, T, w)
    dv = -47
    expect = np.zeros(g.h)
    for n in range(int(T), int(2 * T)):  # [T, 2T) for the indicator
        fac = sympy.factorint(n)
        if len(fac) != 1:
            continue
        p, k = next(iter(fac.items()))
        if dv % p == 0:
            chi = 0
        elif p == 2:
            chi = 1 if dv % 8 == 1 else -1
        else:
            chi = sympy.jacobi_symbol(dv, p)
        if chi == -1:
            if k % 2 == 0:
                expect[0] += 2 * math.log(p)
        elif chi == 0:
            # ramified: unique ideal of norm p^k, class = (sqrt class)^k
            i = _ramified_class_power(g, p, k)
            expect[i] += math.log(p)
        else:
            for i in _split_classes_power(g, p, k):
                expect[i] += math.log(p)
    assert np.allclose(got, expect, atol=1e-10)


def _ramified_class_power(g, p, k):
    entries = prime_power_class(p, k, g)
    assert len(entries) == 1
    return entries[0][0]


def _split_classes_power(g, p, k):
    entries = prime_power_class(p, k, g)
    assert len(entries) == 2
    return [i for i, _, _ in entries]


def test_psi_split_prime_counted_in_both_conjugates():
    # D = -47, T = 2: window [2, 4) contains the split prime 2 and 3
    g = _group(-47)
    psi = psi_by_class(g, 2.0, indicator_weight())
    i1, i2 = g.index_of(QuadForm(2, 1, 6)), g.index_of(QuadForm(2, -1, 6))
    i3, i4 = g.index_of(QuadForm(3, 1, 4)), g.index_of(QuadForm(3, -1, 4))
    assert psi[i1] == pytest.approx(math.log(2))
    assert psi[i2] == pytest.approx(math.log(2))
    assert psi[i3] == pytest.approx(math.log(3))
    assert psi[i4] == pytest.approx(math.log(3))
    assert psi[0] == 0.0


def test_psi_total_equals_sum_over_norms():
    # trivial-character route equals the plain total
    g = _group(-23)
    for t in (10.0, 100.0, 1000.0):
        psi = psi_by_class(g, t, bump_weight())
        chars = psi_by_char(g, psi)
        assert chars[0].real == pytest.approx(float(np.sum(psi)), rel=1e-12)
        assert abs(chars[0].imag) < 1e-12


# ---------------------------------------------------------------------------
# character transform and variance

# h = 1, cyclic of orders 3 and 25, and invariant factors (2,2), (2,2,2),
# (2,2,2,2) and (3,9); a wrong coords -> grid map breaks the comparison
# with Character.value even where Parseval and the round trip still hold
TRANSFORM_DISCS = [-3, -23, -479, -84, -420, -5460, -3299]


@pytest.mark.parametrize("d", TRANSFORM_DISCS)
def test_char_transform_roundtrip(d):
    g = _group(d)
    rng = np.random.default_rng(7)
    vec = rng.normal(size=g.h)
    back = psi_from_chars(g, psi_by_char(g, vec))
    assert np.allclose(back, vec, atol=1e-10)
    # the inverse alone against the Character.value reference
    psi_chi = rng.normal(size=g.h) + 1j * rng.normal(size=g.h)
    chars = characters(g)
    naive = np.array([
        sum(c.value(i).conjugate() * v for c, v in zip(chars, psi_chi))
        for i in range(g.h)
    ]).real / g.h
    assert np.allclose(psi_from_chars(g, psi_chi), naive, atol=1e-9)


def test_psi_by_char_matches_naive():
    for d in TRANSFORM_DISCS:
        g = _group(d)
        vec = np.random.default_rng(11).normal(size=g.h)
        got = psi_by_char(g, vec)
        naive = np.array(
            [sum(c.value(i) * vec[i] for i in range(g.h)) for c in characters(g)]
        )
        assert np.allclose(got, naive, atol=1e-9), d


@pytest.mark.parametrize("d,t", [(-23, 1000.0), (-84, 500.0), (-479, 300.0)])
def test_variance_identities(d, t):
    g = _group(d)
    rep = variance_report(g, t, bump_weight())
    # definitional: sum over classes of |psi_A - psi/h|^2
    mean = rep.psi_total / g.h
    direct = float(np.sum(np.abs(rep.psi_by_class - mean) ** 2))
    assert rep.variance == pytest.approx(direct, rel=1e-12)
    # spectral: (1/h) sum over nontrivial characters
    spectral = float(np.sum(np.abs(rep.psi_by_char[1:]) ** 2)) / g.h
    assert rep.variance_spectral == pytest.approx(spectral, rel=1e-12)
    assert rep.variance == pytest.approx(rep.variance_spectral, rel=1e-9)
    assert rep.roundtrip_error < 1e-9
    assert variance(g, t, bump_weight()) == rep.variance


def test_variance_zero_for_class_number_one():
    g = _group(-163)
    rep = variance_report(g, 1000.0, bump_weight())
    assert rep.variance == 0.0 and rep.variance_spectral == 0.0
    assert rep.psi_total > 0


def test_variance_lower_bound_from_empty_classes():
    # any class with psi_A = 0 contributes (psi/h)^2 to the variance
    g = _group(-479)
    t = 40.0
    rep = variance_report(g, t, indicator_weight())
    zeros = int(np.sum(rep.psi_by_class == 0.0))
    assert zeros > 0  # small window cannot touch all 25 classes
    assert rep.variance >= zeros * (rep.psi_total / g.h) ** 2 - 1e-9


def test_main_term_at_scale():
    g = _group(-23)
    rep = variance_report(g, 10.0**5, bump_weight())
    assert abs(rep.psi_total / rep.t - 1.0) < 0.05
    assert rep.delta_main_term == pytest.approx(rep.psi_total - rep.t)


def test_report_fields():
    g = _group(-23)
    rep = variance_report(g, 100.0, indicator_weight())
    assert rep.disc == -23 and rep.t == 100.0 and rep.weight == "indicator"
    assert rep.psi_by_class.shape == (3,)
    assert rep.psi_by_char.shape == (3,)


# ---------------------------------------------------------------------------
# least primes and exceptional counts

def test_least_primes_minus23():
    g = _group(-23)
    lp = least_primes(g, 1000)
    by_form = {tuple(f): p for f, p in zip(g.elements, lp)}
    assert by_form == {(1, 1, 6): 23, (2, -1, 3): 2, (2, 1, 3): 2}
    assert least_prime_ideal_norms(g, 1000) == lp  # 23 < 5^2, inert sq loses


def test_least_primes_match_bruteforce_representation():
    # oracle: try every prime and every lattice point, no class-group logic
    import sympy

    for d in (-23, -47, -84):
        g = _group(d)
        want = []
        for f in g.elements:
            best = None
            for p in sympy.primerange(2, 600):
                ylim = math.isqrt(4 * f.a * p // -d) + 1
                found = any(
                    evaluate(f, x, y) == p
                    for y in range(ylim + 1)
                    for x in range(-(math.isqrt(4 * f.c * p // -d) + 1),
                                   math.isqrt(4 * f.c * p // -d) + 2)
                )
                if found:
                    best = p
                    break
            want.append(best)
        assert least_primes(g, 600) == want


def test_least_ideal_norm_uses_inert_squares():
    # principal class of D = -47: least prime is 53 but 2 is split... check
    # a case where an inert square beats every principal prime: D = -56?
    # Use explicit construction: for D = -163 small primes are all inert,
    # so the least ideal norm in the principal class is 4 = 2^2 while the
    # least represented prime is 41.
    g = _group(-163)
    assert least_primes(g, 1000) == [41]
    assert least_prime_ideal_norms(g, 1000) == [4]


def test_least_sweep_capped():
    g = _group(-23)
    lp = least_primes(g, 10)
    # only primes < 10 are found; principal class has none (23 is least)
    assert lp[0] is None
    assert lp[1] == 2 and lp[2] == 2
    assert count_exceptional(lp, 10) == 1


def test_exceptional_counts_minus23():
    g = _group(-23)
    assert exceptional_count(g, 3) == 1
    assert exceptional_count(g, 24) == 0
    assert exceptional_count_primes(g, 3) == 1
    assert exceptional_count_primes(g, 24) == 0
    # X = 23 is strict: norm 23 is NOT in (1, 23)
    assert exceptional_count(g, 23) == 1
    assert exceptional_count(g, 23.5) == 0


def test_exceptional_count_monotone():
    g = _group(-479)
    xs = [2, 5, 20, 100, 500, 2000]
    vals = [exceptional_count(g, x) for x in xs]
    assert vals == sorted(vals, reverse=True)
    assert vals[0] == g.h
    assert vals[-1] == 0
    pvals = [exceptional_count_primes(g, x) for x in xs]
    assert pvals == sorted(pvals, reverse=True)
    assert all(pv >= v for pv, v in zip(pvals, vals))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([-23, -47, -84, -163, -479]), st.floats(2, 400))
def test_ideal_norm_never_exceeds_prime(d, x_cap):
    # prime entries are prime-ideal norms too, so the ideal vector is <=
    g = _group(d)
    lp, ln = least_primes(g, x_cap), least_prime_ideal_norms(g, x_cap)
    for p, n in zip(lp, ln):
        if n is None:
            assert p is None
        elif p is not None:
            assert n <= p
    assert count_exceptional(ln, x_cap) <= count_exceptional(lp, x_cap)


def test_identity_mismatch_is_runtime_error():
    assert issubclass(IdentityMismatch, RuntimeError)


# ---------------------------------------------------------------------------
# array code of psi_by_class and _least_sweep against per-prime loops

def _psi_by_class_reference(g, T, w):
    """The per-prime loop psi_by_class ran before it became array code."""
    h = g.h
    out = [0.0] * h
    logf = math.log
    hi = int(2 * T)
    sq = math.isqrt(hi)
    inv = [g.inverse_idx(i) for i in range(h)]
    for p in arith.sieve_primes(sq).tolist():
        chi, c = scalar_class(p, g)
        if chi == -1:
            lam = 2.0 * logf(p)
            n = p * p
            while n <= hi:
                wv = weight_eval(w, n / T)
                if wv:
                    out[0] += lam * wv
                n *= p * p
        elif chi == 0:
            lam = logf(p)
            n, cur = p, c
            while n <= hi:
                wv = weight_eval(w, n / T)
                if wv:
                    out[cur] += lam * wv
                n *= p
                cur = g.compose_idx(cur, c)
        else:
            lam = logf(p)
            ci = inv[c]
            n, cur, curi = p, c, ci
            while n <= hi:
                wv = weight_eval(w, n / T)
                if wv:
                    out[cur] += lam * wv
                    out[curi] += lam * wv
                n *= p
                cur = g.compose_idx(cur, c)
                curi = g.compose_idx(curi, ci)
    for block in arith.iter_prime_blocks(max(sq + 1, int(T)), hi):
        for p in block.tolist():
            chi, idx = scalar_class(p, g)
            if chi == -1:
                continue
            wv = weight_eval(w, p / T)
            if wv == 0.0:
                continue
            lw = logf(p) * wv
            out[idx] += lw
            if chi == 1:
                out[inv[idx]] += lw
    return out


def _least_sweep_reference(g, x_cap):
    """The per-prime loop _least_sweep ran before it became array code."""
    h = g.h
    least_p: list[Optional[int]] = [None] * h
    filled = 0
    first_inert: Optional[int] = None
    hi = math.ceil(x_cap) - 1
    if hi >= 2:
        for block in arith.iter_prime_blocks(2, hi):
            for p in block.tolist():
                chi, idx = scalar_class(p, g)
                if chi == -1:
                    if first_inert is None:
                        first_inert = p
                    continue
                if least_p[idx] is None:
                    least_p[idx] = p
                    filled += 1
                if chi == 1:
                    j = g.inverse_idx(idx)
                    if least_p[j] is None:
                        least_p[j] = p
                        filled += 1
            if filled == h:
                break
    least_norm = list(least_p)
    if first_inert is not None and first_inert * first_inert < x_cap:
        sq = first_inert * first_inert
        if least_norm[0] is None or sq < least_norm[0]:
            least_norm[0] = sq
    return least_p, least_norm


@pytest.mark.parametrize(
    "d,T",
    [(-3, 2.0), (-4, 150.0), (-23, 1e3), (-84, 3e4), (-420, 1e5), (-5460, 1e5),
     (-3299, 2e5), (-10000019, 1e6)],
)
def test_psi_by_class_equals_per_prime_loop(d, T):
    g = _group(d)
    for w in (bump_weight(), indicator_weight()):
        assert psi_by_class(g, T, w).tolist() == _psi_by_class_reference(g, T, w)


@pytest.mark.parametrize(
    "d,x_cap",
    [(-3, 2), (-4, 3.5), (-23, 24), (-84, 500), (-420, 5000), (-3299, 1e4),
     (-10000019, 3e6)],
)
def test_least_sweep_equals_per_prime_loop(d, x_cap):
    # D = -10000019 fills its last class in the third sieve block
    g = _group(d)
    lp, ln, capped = _least_sweep(g, x_cap)
    assert (lp, ln) == _least_sweep_reference(g, x_cap)
    assert not capped


# ---------------------------------------------------------------------------
# the sweep's slices and runs of many jobs against the single-D path

def _counting_prime_classes(monkeypatch) -> list[int]:
    counted = []
    real = arith.interval_classes

    def counting(requests):
        counted.append(sum(len(primes) for _, primes in requests))
        return real(requests)

    monkeypatch.setattr(arith, "interval_classes", counting)
    return counted


@pytest.mark.parametrize("d,x_cap", [(-3299, 1e6), (-1999, 1e5)])
def test_least_sweep_stops_once_classes_are_filled(d, x_cap, monkeypatch):
    # the parent classified the whole first sieve block: 78,498 and 9,592
    # primes; -3299 needs its first 144 primes
    g = _group(d)
    want = _least_sweep(g, x_cap)
    counted = _counting_prime_classes(monkeypatch)
    assert _least_sweep(g, x_cap) == want
    assert 0 < sum(counted) <= 1000
    assert all(want[0])


def test_least_sweep_slices_double_across_blocks():
    # h = 1275 starts at 10,200 primes; its last class fills in the first
    # sieve block past the table (test_least_sweep_equals_per_prime_loop)
    g = _group(-10000019)
    lp, ln, _ = _least_sweep(g, 3e6)
    assert max(lp) > 2 * 2**20 and None not in lp


@pytest.mark.parametrize("d,x_cap,calls,primes", [(-10000019, 1e12, 2, 191182), (-10289639, 1e6, 1, 78498)])
def test_least_sweep_starts_at_the_principal_floor(d, x_cap, calls, primes, monkeypatch):
    # the principal class holds no prime below |D|/4, so the first slice
    # reaches it; first slices of 16h + 64 classified the same primes in 9
    # and 5 calls (least-primes --disc -10000019, heegner --disc -10289639
    # --x-cap 1e6)
    g = _group(d)
    counted = _counting_prime_classes(monkeypatch)
    _least_sweep(g, x_cap)
    assert len(counted) == calls
    assert sum(counted) == primes


def _largest_sieved(monkeypatch) -> list[int]:
    """[the largest prime sieved so far], kept up to date from here on."""
    largest = [0]
    real_blocks, real_sieve = arith.iter_prime_blocks, arith.sieve_primes

    def blocks(*args, **kw):
        for block in real_blocks(*args, **kw):
            largest[0] = max(largest[0], int(block[-1]))
            yield block

    def sieve(*args, **kw):
        primes = real_sieve(*args, **kw)
        largest[0] = max(largest[0], int(primes[-1]) if len(primes) else 0)
        return primes

    monkeypatch.setattr(arith, "iter_prime_blocks", blocks)
    monkeypatch.setattr(arith, "sieve_primes", sieve)
    return largest


def test_least_sweep_stops_sieving_once_classes_are_filled(monkeypatch):
    # the sieve cap, not x_cap, bounds this sweep; its last class fills in
    # the first sieve block past the table of the primes up to 2^21, so no
    # prime past 2^22 is ever sieved
    g = _group(-10000019)
    largest = _largest_sieved(monkeypatch)
    lp, _, capped = _least_sweep(g, 1e12)
    assert capped and None not in lp
    assert 2 * 2**20 < largest[0] < 4 * 2**20


def test_single_d_sweep_sieves_about_as_far_as_it_reaches(monkeypatch):
    # the parent sieved a whole table of the primes up to 2^20 for a sweep
    # whose largest least prime is 827
    g = _group(-3299)
    largest = _largest_sieved(monkeypatch)
    lp, _, capped = _least_sweep(g, 1e6)
    assert not capped and None not in lp
    assert 0 < largest[0] < 4 * max(lp)


BATCH = ((-3, 2.0), (-4, 150.0), (-23, 1e3), (-84, 3e4), (-420, 1e5), (-1999, 5e4), (-3299, 2e5))
LIMITS = (30, 1998, 10**5)


def test_psi_classes_match_psi_by_class(monkeypatch):
    # psi jobs of many groups in one run, their primes from one source whose
    # table ends before, inside or past the segments, against psi_by_class
    groups = [_group(d) for d, _ in BATCH]
    weights = (bump_weight(), indicator_weight())
    want = [psi_by_class(g, t, w).tolist() for g, (_, t) in zip(groups, BATCH) for w in weights]
    for limit in LIMITS:
        monkeypatch.setattr(stats, "_TABLE_LIMIT", limit)
        jobs = [psi_job(g, t, w, arith.SIEVE_CAP_DEFAULT) for g, (_, t) in zip(groups, BATCH) for w in weights]
        got = run_jobs(jobs, stats.PrimeSource())
        assert [psa.tolist() for psa in got] == want  # bit for bit


def _count_interval_classes(monkeypatch) -> list:
    calls = []
    real = arith.interval_classes
    monkeypatch.setattr(arith, "interval_classes", lambda reqs: calls.append(reqs) or real(reqs))
    return calls


@pytest.mark.parametrize(
    "limit,t,prime", [(3000, 2000, 3001), (30, 1000, 31), (100, 1000, 1009)]
)
def test_psi_prime_limit_is_checked_before_any_request(limit, t, prime, monkeypatch):
    # the prime -> class limit, lowered here from 2^31, inside the segment
    # [2000, 4000], inside [2, sqrt(2T)] = [2, 44], or below the segment
    # [1000, 2000]: the first prime past it (in the last case the
    # segment's first prime) is named before any prime is classified
    monkeypatch.setattr(arith, "_INT64_EXACT", limit)
    calls = _count_interval_classes(monkeypatch)
    with pytest.raises(
        arith.LimitTooLarge,
        match=rf"^prime {prime} at D = -23 is not below 2\^31, the prime -> class limit$",
    ):
        psi_by_class(enumerate_reduced_forms(-23), t, bump_weight())
    assert calls == []


def test_round_with_every_request_failed_classifies_nothing(monkeypatch):
    # the sweep of D = -119 asks for [2, 224], then for [225, 448], which
    # passes a limit lowered to 230 and is alone in its round: that round
    # fails its limit check and calls interval_classes with no requests
    # (psi_job names a segment past the limit before its first request,
    # so a sweep makes such a round)
    monkeypatch.setattr(arith, "_INT64_EXACT", 230)
    calls = _count_interval_classes(monkeypatch)
    with pytest.raises(arith.LimitTooLarge, match=r"^prime 233 at D = -119 "):
        _least_sweep(enumerate_reduced_forms(-119), 1000)
    assert calls and all(calls)


def test_psi_segment_that_reaches_the_limit_without_a_prime_past_it(monkeypatch):
    # at T = 1500 the segment [1500, 3000] reaches a limit of 3000 but holds
    # no prime at or past it: the sums are those of the unpatched run
    g, w = enumerate_reduced_forms(-23), bump_weight()
    want = psi_by_class(g, 1500, w).tolist()
    monkeypatch.setattr(arith, "_INT64_EXACT", 3000)
    calls = _count_interval_classes(monkeypatch)
    assert psi_by_class(g, 1500, w).tolist() == want  # bit for bit
    assert calls


@pytest.mark.parametrize("limit", LIMITS)
def test_least_sweeps_match_least_sweep(limit, monkeypatch):
    # sweeps of many groups in one run, reading past the end of the table
    # where their x_cap lets them, against _least_sweep
    groups = [_group(d) for d, _ in BATCH] + [_group(-163)]
    x_caps = [2.0, 3.5, 24, 500, 5000, 3e4, 1e4, 1e3]
    want = [_least_sweep(g, x) for g, x in zip(groups, x_caps)]
    monkeypatch.setattr(stats, "_TABLE_LIMIT", limit)
    past = _sieved_past_table(monkeypatch, limit)
    asked = []  # the sweeps' requests, each fetched as the jobs ask for it
    real_primes = stats.PrimeSource.primes

    def primes(self, lo, hi):
        asked.append((lo, hi))
        return real_primes(self, lo, hi)

    monkeypatch.setattr(stats.PrimeSource, "primes", primes)
    jobs = [sweep_job(g, x, arith.SIEVE_CAP_DEFAULT) for g, x in zip(groups, x_caps)]
    assert run_jobs(jobs, stats.PrimeSource()) == want
    # the sweeps read past the table where their x_cap lets them, and
    # each sieve there covers no norm its sweep did not ask for
    assert bool(past) == (limit < 3e4)
    assert all(any(a <= lo and hi <= b for a, b in asked) for lo, hi in past)
    # -1999 fills its last class at p = 1999, past a table ending at 30 or 1998
    assert max(want[5][0]) == 1999


def _sieved_past_table(monkeypatch, limit: int) -> list[tuple[int, int]]:
    """The (lo, hi) of each sieve call past a table ending at limit, kept
    up to date from here on; the table's own extensions end at its limit."""
    past = []
    real = arith.iter_prime_blocks

    def sieve(lo, hi, **kw):
        if lo > limit:
            past.append((lo, hi))
        return real(lo, hi, **kw)

    monkeypatch.setattr(arith, "iter_prime_blocks", sieve)
    return past


def test_psi_segment_sieves_only_its_own_norms(monkeypatch):
    # variance --disc -10000019 --t 1e7: the segment [T, 2T] lies past the
    # table of the primes up to 2^21, and only it is sieved there, one
    # block of at most 2^21 integers per request
    g = _group(-10000019)
    past = _sieved_past_table(monkeypatch, stats._TABLE_LIMIT)
    psi_by_class(g, 1e7, bump_weight())
    hi = 2 * 10**7
    assert past == [(lo, min(lo + stats._BLOCK - 1, hi)) for lo in range(10**7, hi + 1, stats._BLOCK)]


@pytest.mark.parametrize("limit", [0, 30, 1998, 2**21])
def test_prime_source_parts_are_the_sieve(limit, monkeypatch):
    # the pieces of [lo, hi] tile it, each inside the table or one block
    # of at most _BLOCK integers past it, and their primes are ascending
    # and concatenate to the sieve over [lo, hi]: inside the table, across
    # its end and a block's end, from an interval without primes, and up
    # to a sieve cap that ends mid-block
    monkeypatch.setattr(stats, "_TABLE_LIMIT", limit)
    block, cap = stats._BLOCK, limit + 2 * stats._BLOCK + 1000
    want = arith.sieve_primes(cap)
    source = stats.PrimeSource(cap)
    spans = [
        (2, 2), (2, 100), (24, 28), (max(2, limit - 50), limit + 50),
        (limit + block - 50, limit + block + 50), (max(2, limit - 10), cap), (cap - 5000, cap),
    ]
    for lo, hi in spans:
        pieces = list(stats._pieces(lo, hi))
        assert [a for a, _ in pieces] == [lo] + [b + 1 for _, b in pieces[:-1]]
        assert pieces[-1][1] == hi
        assert all(b <= limit or limit < a <= b < a + block for a, b in pieces)
        parts = [source.primes(a, b) for a, b in pieces]
        assert all((np.diff(p) > 0).all() for p in parts)
        got = np.concatenate([np.empty(0, dtype=np.int64), *parts])
        assert got.tolist() == want[(want >= lo) & (want <= hi)].tolist()
    with pytest.raises(arith.LimitTooLarge):
        source.primes(2, cap + 1)


def test_prime_source_hands_a_repeated_block_out_again(monkeypatch):
    # past the table, the last block sieved comes back, read-only, for the
    # same request, after the sieve-cap check; another request sieves anew
    past = _sieved_past_table(monkeypatch, stats._TABLE_LIMIT)
    source = stats.PrimeSource(6 * 10**6)
    lo, hi = 3 * 10**6, 3 * 10**6 + stats._BLOCK - 1
    first = source.primes(lo, hi)
    assert source.primes(lo, hi) is first and not first.flags.writeable
    want = arith.sieve_primes(hi)
    assert first.tolist() == want[want >= lo].tolist()
    assert past == [(lo, hi)]
    source.primes(hi + 1, 6 * 10**6)
    assert source.primes(lo, hi).tolist() == first.tolist()
    assert past == [(lo, hi), (hi + 1, 6 * 10**6), (lo, hi)]
    with pytest.raises(arith.LimitTooLarge):
        stats.PrimeSource(hi - 1).primes(lo, hi)


def test_table_growth_sieves_each_prime_once(monkeypatch):
    # a sweep's doubling requests grow the table from 16h + 64 = 20464 to
    # 2^21; each growth sieves only past the old limit
    want = arith.sieve_primes(stats._TABLE_LIMIT)
    sieved = []
    real = arith.iter_prime_blocks

    def blocks(*args, **kw):
        for block in real(*args, **kw):
            sieved.append(block)
            yield block

    monkeypatch.setattr(arith, "iter_prime_blocks", blocks)
    source = stats.PrimeSource()
    lo, end = 2, 20464
    while lo <= stats._TABLE_LIMIT:
        hi = min(end, stats._TABLE_LIMIT)
        part = source.primes(lo, hi)
        assert part.tolist() == want[(want >= lo) & (want <= hi)].tolist()
        lo, end = end + 1, 2 * end
    assert source.limit == stats._TABLE_LIMIT and len(sieved) == 8
    assert np.concatenate(sieved).tolist() == want.tolist()


def test_rounds_keep_to_their_pair_budget(monkeypatch):
    # a round takes the jobs' requests in turn while they fit in
    # _ROUND_POINTS lattice points, or one request alone, however many
    # jobs a run has
    groups = [_group(d) for d, _ in BATCH]
    want = [_least_sweep(g, 1e4) for g in groups]
    monkeypatch.setattr(stats, "_ROUND_POINTS", 200)
    rounds = []
    real = arith.interval_classes

    def recording(requests):
        points = sum(arith.box_points(g, primes[0], primes[-1]) for g, primes in requests)
        rounds.append((points, len(requests)))
        return real(requests)

    monkeypatch.setattr(arith, "interval_classes", recording)
    jobs = [sweep_job(g, 1e4, arith.SIEVE_CAP_DEFAULT) for g in groups]
    assert run_jobs(jobs, stats.PrimeSource()) == want
    assert all(points <= 200 or jobs == 1 for points, jobs in rounds)
    assert max(jobs for _, jobs in rounds) > 1


def test_least_sweeps_respect_the_sieve_cap():
    groups = [_group(-23), _group(-3299)]
    got = run_jobs([sweep_job(g, 1000, 100) for g in groups], stats.PrimeSource(100))
    assert got == [_least_sweep(g, 1000, sieve_cap=100) for g in groups]
    assert all(capped for _, _, capped in got)


def test_run_jobs_starts_jobs_lazily_in_order(monkeypatch):
    # rounds of 100 points take two requests over [2, 50] at D = -23.  A
    # job starts only in a round that took every waiting request, so job 4
    # starts after the first round; jobs 1 and 5 return at their first
    # send, and job 2 finishes before job 0, yet every result keeps the
    # iterable's order
    monkeypatch.setattr(stats, "_ROUND_POINTS", 100)
    g = _group(-23)
    assert arith.box_points(g, 2, 50) == 34
    log = []
    real = arith.interval_classes
    monkeypatch.setattr(
        arith, "interval_classes", lambda requests: log.append(("round", None)) or real(requests)
    )

    def job(j, asks):
        log.append(("start", j))
        for _ in range(asks):
            log.append(("ask", j))
            primes, _, _ = yield g, 2, 50
            log.append(("got", j))
            assert primes.tolist() == arith.sieve_primes(50).tolist()
        log.append(("finish", j))
        return j

    asks = [3, 0, 1, 2, 1, 0]
    assert run_jobs((job(j, n) for j, n in enumerate(asks)), stats.PrimeSource()) == list(range(6))
    finished = [j for kind, j in log if kind == "finish"]
    assert sorted(finished) == list(range(6)) and finished.index(2) < finished.index(0)
    rounds = [k for k, (kind, _) in enumerate(log) if kind == "round"]
    assert log.index(("start", 4)) > rounds[0]
    for k, (kind, j) in enumerate(log):
        if kind != "start":
            continue
        # every request waiting when job j starts is sent in the next round
        before = log[:k]
        waiting = {i for i in range(j) if before.count(("ask", i)) > before.count(("got", i))}
        r, end = ([r for r in rounds if r > k] + [len(log)] * 2)[:2]
        assert waiting <= {i for kind, i in log[r:end] if kind == "got"}
