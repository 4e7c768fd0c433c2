import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import jacobi_symbol

import classprime
from classprime import arith
from classprime.arith import (
    LimitTooLarge,
    _periodic,
    _scalar_class,
    _simple_sieve,
    chi_table,
    class_number_from_l,
    classify_prime,
    dirichlet_r_upto,
    interval_classes,
    iter_prime_blocks,
    l_one_chi,
    representation_counts_upto,
    sieve_primes,
    unit_count,
)
from classprime.classgroup import (
    ClassGroup,
    InvalidIdealBasis,
    enumerate_groups,
    enumerate_reduced_forms,
    group_structure,
)
from classprime.qform import QuadForm, is_fundamental, validate_discriminant
from oracles import (
    dirichlet_r,
    evaluate,
    kronecker,
    prime_classes,
    prime_power_class,
    reduce,
    reference_chi_table,
    reference_l_one,
    representation_count,
    scalar_class,
    sqrt_disc_mod_4p,
    sqrt_mod_prime,
)
from test_classgroup import ORACLE_DISCS


def test_unit_count():
    assert unit_count(-3) == 6
    assert unit_count(-4) == 4
    assert unit_count(-7) == 2
    assert unit_count(-10007) == 2


def test_kronecker_hand_values():
    assert kronecker(-23, 2) == 1
    assert kronecker(-23, 5) == -1
    assert kronecker(-23, 23) == 0
    assert kronecker(-8, 3) == 1
    assert kronecker(-4, 5) == 1
    assert kronecker(-4, 3) == -1
    assert kronecker(-4, 7) == -1
    assert kronecker(-23, 1) == 1
    assert kronecker(-23, 0) == 0


@settings(max_examples=300)
@given(
    st.sampled_from([-3, -4, -8, -15, -20, -23, -84, -163, -10007]),
    st.integers(1, 10**6),
)
def test_kronecker_matches_jacobi_oracle(d, n):
    if n % 2:
        assert kronecker(d, n) == jacobi_symbol(d, n)
    else:
        # peel the even part; (d/2) depends on d mod 8
        k = kronecker(d, n)
        e = 0
        m = n
        while m % 2 == 0:
            m //= 2
            e += 1
        two = 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
        assert k == two**e * jacobi_symbol(d, m)


@settings(max_examples=200)
@given(
    st.sampled_from([-23, -84, -163]),
    st.integers(1, 10**4),
    st.integers(1, 10**4),
)
def test_kronecker_multiplicative_and_periodic(d, m, n):
    assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)
    assert kronecker(d, n) == kronecker(d, n + -d)  # period divides |d|


def test_sieve_prime_counts():
    assert len(sieve_primes(10)) == 4
    assert len(sieve_primes(10**6)) == 78498  # pi(1e6)
    assert sieve_primes(1).size == 0
    ps = sieve_primes(100)
    assert ps[0] == 2 and ps[-1] == 97
    assert all(sympy.isprime(int(p)) for p in ps)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 100, 10**6 + 7])
def test_simple_sieve_matches_sympy(limit):
    assert _simple_sieve(limit).tolist() == list(sympy.primerange(0, limit + 1))


# the least strong pseudoprimes to the first 1, 2, ..., 11 prime bases,
# all composite, and a Carmichael number
PSEUDOPRIMES = [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 561,
]


def test_miller_rabin_matches_sympy():
    assert [n for n in range(-2, 20000) if arith.is_prime(n)] == list(sympy.primerange(0, 20000))
    # and primes: 2^61 - 1, the last below 2^64, two past 10^18
    for n in PSEUDOPRIMES + [2**61 - 1, 2**64 - 59, 10**18 + 3, 10**18 + 9]:
        assert arith.is_prime(n) == sympy.isprime(n), n
    with pytest.raises(ValueError):
        arith.is_prime(arith._MR_LIMIT)


@given(st.integers(2, 2**62))
@settings(max_examples=200, deadline=None)
def test_next_prime_matches_sympy(n):
    assert arith.next_prime(n) == sympy.nextprime(n - 1)


def test_simple_sieve_memory():
    # one bool per integer and the primes; no int64 copy of the even numbers
    tracemalloc.start()
    try:
        ps = _simple_sieve(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ps) == 664579  # pi(1e7)
    assert peak < 32 * 2**20


def test_segmented_sieve_matches_simple():
    ps = sieve_primes(200000)
    flat = np.concatenate(list(iter_prime_blocks(0, 200000, block=7919)))
    assert np.array_equal(flat, ps)
    mid = np.concatenate(list(iter_prime_blocks(99000, 150000, block=4096)))
    assert np.array_equal(mid, ps[(ps >= 99000) & (ps <= 150000)])
    assert list(iter_prime_blocks(20, 10)) == []


# lo of 0 to 3, and more even and odd lo; 5003^2, a prime square, starts
# the first block and, from 64 below it, a later block of 1, 2 or 64
# integers; two ranges cross 2^21, the table limit of a PrimeSource
@pytest.mark.parametrize(
    "lo", [0, 1, 2, 3, 4, 97, 5003**2, 5003**2 - 64, 2**21 - 500, 2**21 - 501]
)
def test_odd_only_sieve_matches_simple(lo):
    hi = lo + 1000
    ref = _simple_sieve(hi)
    want = ref[ref >= lo].tolist()
    for block in (1, 2, 7, 64, 4093, 2**21):
        got = list(iter_prime_blocks(lo, hi, block=block))
        assert all(b.dtype == np.int64 and len(b) for b in got)
        assert np.concatenate(got).tolist() == want, block


def test_sieve_cap_enforced():
    with pytest.raises(LimitTooLarge):
        sieve_primes(10**7, cap=10**6)
    with pytest.raises(LimitTooLarge):
        list(iter_prime_blocks(0, 10**7, cap=10**6))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 101, 997, 10007, 104729])
def test_sqrt_mod_prime_exhaustive_small(p):
    residues = {pow(x, 2, p) for x in range(1, p)} if p < 2000 else None
    for a in range(1, min(p, 400)):
        r = sqrt_mod_prime(a, p)
        if residues is not None:
            assert (r is not None) == (a % p in residues)
        if r is not None:
            assert 0 < r < p and r * r % p == a % p


def test_sqrt_disc_mod_4p():
    for d in (-23, -84, -163, -10007):
        for p in (2, 3, 5, 7, 11, 13, 10007):
            b = sqrt_disc_mod_4p(d, p)
            if b is None:
                assert kronecker(d, p) == -1
            else:
                assert (b * b - d) % (4 * p) == 0
                assert (b - d) % 2 == 0
                assert 0 <= b < 2 * p or p == 2


def test_classify_prime_minus23():
    g = group_structure(enumerate_reduced_forms(-23))
    kinds = {2: "split", 3: "split", 5: "inert", 7: "inert", 11: "inert",
             13: "split", 23: "ramified", 59: "split"}
    for p, kind in kinds.items():
        c = classify_prime(p, g)
        assert c.kind == kind
        if kind == "split":
            forms = {g.elements[i] for i in c.classes}
            if p == 59:  # 59 = (1,1,6) at (5, 2): principal split prime
                assert forms == {QuadForm(1, 1, 6)}
            else:
                assert forms == {QuadForm(2, 1, 3), QuadForm(2, -1, 3)}
        elif kind == "ramified":
            assert g.elements[c.class_index] == QuadForm(1, 1, 6)
        else:
            assert c.class_index is None


def test_classify_prime_ramified_minus84():
    # -84 = -4 * 21: ramified at 2, 3, 7
    g = group_structure(enumerate_reduced_forms(-84))
    assert classify_prime(2, g).kind == "ramified"
    assert classify_prime(3, g).kind == "ramified"
    assert classify_prime(7, g).kind == "ramified"
    assert g.elements[classify_prime(3, g).class_index] == QuadForm(3, 0, 7)


def test_classified_class_really_represents_p():
    g = group_structure(enumerate_reduced_forms(-479))
    for p in (int(q) for q in sieve_primes(200)):
        c = classify_prime(p, g)
        if c.kind == "inert":
            continue
        for i in c.classes:
            f = g.elements[i]
            assert any(
                evaluate(f, x, y) == p
                for x in range(-p, p + 1)
                for y in range(int(math.isqrt(4 * f.a * p // 479)) + 1)
            )


def test_prime_power_class_split_conjugates():
    g = group_structure(enumerate_reduced_forms(-23))
    entries = prime_power_class(2, 4, g)
    assert len(entries) == 2
    assert {g.elements[i] for i, _, _ in entries} == {
        QuadForm(2, 1, 3),
        QuadForm(2, -1, 3),
    }
    for _, norm, lam in entries:
        assert norm == 16 and lam == pytest.approx(math.log(2))


def test_prime_power_class_inert_and_ramified():
    g = group_structure(enumerate_reduced_forms(-23))
    (idx, norm, lam), = prime_power_class(5, 1, g)
    assert idx == 0 and norm == 25 and lam == pytest.approx(2 * math.log(5))
    (idx, norm, lam), = prime_power_class(5, 2, g)
    assert idx == 0 and norm == 625
    (idx, norm, lam), = prime_power_class(23, 1, g)
    assert idx == 0 and norm == 23 and lam == pytest.approx(math.log(23))
    (idx, norm, lam), = prime_power_class(23, 2, g)
    # p^2 over a ramified prime is the square class, here principal
    assert idx == 0 and norm == 529


def test_split_power_classes_walk_the_cyclic_group():
    g = group_structure(enumerate_reduced_forms(-47))  # C5, generated by (2,1,6)
    two = {g.elements[i] for i, _, _ in prime_power_class(2, 1, g)}
    assert two == {QuadForm(2, 1, 6), QuadForm(2, -1, 6)}
    sq = {g.elements[i] for i, _, _ in prime_power_class(2, 2, g)}
    # squares of the two conjugate classes
    i1 = g.index_of(QuadForm(2, 1, 6))
    assert sq == {g.elements[g.power_idx(i1, 2)], g.elements[g.power_idx(i1, -2)]}


@pytest.mark.parametrize("d", [-3, -4, -8, -23, -47, -71, -84, -163])
def test_representation_equals_dirichlet(d):
    disc = validate_discriminant(d)
    counts = representation_counts_upto(600, disc)
    formula = dirichlet_r_upto(600, disc)
    assert np.array_equal(counts[1:], formula[1:])


@pytest.mark.parametrize("d", [-3, -4, -23, -3299])
def test_dirichlet_r_upto_matches_scalar_around_squares(d):
    # the divisor hyperbola splits at isqrt(n_max): n_max at, just below
    # and just above perfect squares
    for nmax in (1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 99, 100, 101, 143, 144, 145, 1023, 1024, 1025):
        want = [0] + [dirichlet_r(n, d) for n in range(1, nmax + 1)]
        assert dirichlet_r_upto(nmax, d).tolist() == want


def test_representation_count_single_matches_batch():
    disc = validate_discriminant(-23)
    counts = representation_counts_upto(120, disc)
    for n in (1, 2, 4, 6, 23, 25, 27, 59, 118, 120):
        assert representation_count(n, disc) == counts[n]
        assert dirichlet_r(n, disc) == counts[n]


def test_representation_bruteforce_oracle():
    # independent triple-loop count over ALL reduced forms of the disc
    d = validate_discriminant(-84)
    forms = enumerate_reduced_forms(-84).elements
    for n in range(1, 60):
        total = 0
        for f in forms:
            for x in range(-n, n + 1):
                for y in range(-n, n + 1):
                    if evaluate(f, x, y) == n:
                        total += 1
        assert representation_count(n, d) == total


def test_total_prime_representations_bounded_by_4pi():
    # each represented prime is split or ramified; r = 4 (or 2w for ramified)
    d = validate_discriminant(-71)
    counts = representation_counts_upto(3000, d)
    primes = sieve_primes(3000)
    n_repr = int(np.count_nonzero(counts[primes]))
    assert sum(int(counts[p]) for p in primes) <= 4 * len(primes)
    # about half of primes split; loose two-sided sanity band
    assert 0.3 * len(primes) < n_repr < 0.7 * len(primes)


def test_chi_table_matches_kronecker():
    for d in (-3, -4, -23, -84, -10007):
        t = chi_table(d, 2000)
        for n in range(2000):
            assert t[n] == kronecker(d, n)


def test_chi_table_matches_reference(monkeypatch):
    # prime-discriminant tables against the per-prime multiplicative fill
    nonfundamental = [-12, -16, -27, -36, -75, -108, -180, -300, -2700]
    fundamental = [d for d in range(-2000, -2) if is_fundamental(d)]
    for d in fundamental + nonfundamental:
        for m in (0, 1, 2, 37, -d, 3 * -d + 5):
            t = chi_table(d, m)
            assert t.dtype == np.int8
            assert np.array_equal(t, reference_chi_table(d, m)), (d, m)
    # q = 10289639 marks its squares in ten parts, on one thread and on two
    d = -10289639
    want = reference_chi_table(d, -d)
    for cpus in (1, 2):
        monkeypatch.setattr(arith, "usable_cpus", lambda n=cpus: n)
        assert np.array_equal(chi_table(d, -d), want)
        assert np.array_equal(chi_table(d, 3 * 2**19 + 5), want[: 3 * 2**19 + 5])


def test_chi_table_memory_is_bounded():
    # one period at |D| ~ 1e7 is 9.8 MiB of int8; a full-length int64
    # index array would be 78.5 MiB
    d = -10289639
    tracemalloc.start()
    try:
        t = chi_table(d, -d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(t) == -d
    assert peak < 32 * 2**20


def test_chi_table_memory_does_not_grow_with_cpus(monkeypatch):
    # 16 usable CPUs split the same 2^20 squares into 16 parts of 2^16, so
    # the peak is that of one CPU, under test_chi_table_memory_is_bounded's
    # bound
    d = -10289639
    peaks = {}
    for cpus in (1, 16):
        monkeypatch.setattr(arith, "usable_cpus", lambda n=cpus: n)
        tracemalloc.start()
        try:
            chi_table(d, -d)
            peaks[cpus] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] < 32 * 2**20
    assert peaks[16] < peaks[1] + 2**20, peaks


def test_l_one_against_closed_forms():
    # h = w sqrt|D| L / 2pi inverted at the three classical points
    cases = [
        (-23, 3 * math.pi / math.sqrt(23)),
        (-4, math.pi / 4),
        (-3, math.pi / (3 * math.sqrt(3))),
        (-8, math.pi / math.sqrt(8)),
    ]
    for d, target in cases:
        est = l_one_chi(d)
        assert abs(est.value - target) <= est.tail_bound
        assert est.tail_bound < 1e-4
        assert est.terms >= -d


def test_l_one_term_floor():
    with pytest.raises(ValueError):
        l_one_chi(-10007, 500)  # fewer terms than the period is meaningless


@pytest.mark.parametrize("m", [1, 3, 23, 1000])
@pytest.mark.parametrize("start,count", [(1, 1), (1, 999), (5, 1000), (999, 2), (1, 5000), (2**20 + 1, 2**20)])
def test_periodic_block_matches_modular_gather(m, start, count):
    tbl = (np.arange(m) % 127).astype(np.int8)
    block = _periodic(tbl, start, count)
    assert block.dtype == tbl.dtype
    assert np.array_equal(block, tbl[np.arange(start, start + count) % m])


def test_l_one_memory_is_bounded_in_terms():
    # summed per block, so memory does not grow with terms (one float64
    # array of 1e7 terms alone is 76 MiB)
    d, terms = -10007, 10**7
    tracemalloc.start()
    try:
        est = l_one_chi(d, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    tbl = chi_table(d, -d)

    def each_term():
        for lo in range(1, terms + 1, 2**20):
            n = np.arange(lo, min(lo + 2**20, terms + 1))
            yield from (tbl[n % -d] / n).tolist()

    # correctly rounded sum of the same terms
    assert est.value == pytest.approx(math.fsum(each_term()), rel=1e-13)


def test_l_one_memory_does_not_grow_with_cpus(monkeypatch):
    # two threads at most, one per half-block, however many CPUs are
    # usable: the peak is that of two CPUs, one block, under
    # test_l_one_memory_is_bounded_in_terms's bound
    d, terms = -10007, 10**7
    peaks = {}
    for cpus in (2, 16):
        monkeypatch.setattr(arith, "usable_cpus", lambda n=cpus: n)
        tracemalloc.start()
        try:
            l_one_chi(d, terms)
            peaks[cpus] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] < 64 * 2**20
    assert peaks[16] < peaks[2] + 2**20, peaks


def test_l_one_sum_repeats_across_blas_thread_counts():
    # a BLAS dot splits its sum by thread: at the seed this read
    # 6.427331612811388 with one OpenBLAS thread and 6.42733161281139 with two
    src = str(Path(classprime.__file__).resolve().parents[1])
    code = "from classprime.arith import l_one_chi; print(repr(l_one_chi(-10289639, 20579278).value))"
    values = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        values.add(res.stdout)
    assert len(values) == 1, values


@pytest.mark.parametrize("d", [-23, -3299, -340340, -2700, -10289639])
def test_l_one_matches_whole_block_sums_on_any_thread_count(d, monkeypatch):
    # each block's two pairwise halves, summed apart, add up to numpy's sum
    # of the whole block bit for bit: last blocks below the 8-term unroll,
    # at and past the 128-term pairwise leaf, of half and of all 2^20
    # terms.  -2700 = 30^2 * -3 has a conductor
    blocks = -(d // 2**20)
    for r in (1, 7, 128, 129, 2**19, 2**20 - 1, 2**20):
        terms = blocks * 2**20 + r
        want = reference_l_one(d, terms)
        for cpus in (1, 2):
            monkeypatch.setattr(arith, "usable_cpus", lambda n=cpus: n)
            assert l_one_chi(d, terms).value == want, (r, cpus)


def test_l_one_value_is_pinned(monkeypatch):
    # the value of heegner --disc -10289639 --l-terms 20579278
    for cpus in (1, 2):
        monkeypatch.setattr(arith, "usable_cpus", lambda n=cpus: n)
        assert repr(l_one_chi(-10289639, 20579278).value) == "6.4273316128113835"


def test_block_map_interleaves_items_over_threads(monkeypatch):
    # thread i runs items i, i + 3, ...; the caller is thread 0.  One
    # thread per usable CPU, at most `most` and at most one per item
    before = threading.active_count()
    for cpus, most, threads in ((1, 16, 1), (3, 16, 3), (16, 16, 10), (16, 4, 4)):
        monkeypatch.setattr(arith, "usable_cpus", lambda n=cpus: n)
        out = arith._block_map(lambda i: (i, threading.current_thread().name), range(10), most)
        assert [i for i, _ in out] == list(range(10))
        names = [name for _, name in out]
        assert names[0] == threading.current_thread().name
        assert names == [names[i % threads] for i in range(10)]
        assert len(set(names)) == threads
        assert threading.active_count() == before
    assert arith._block_map(str, [], 16) == []
    # more threads than cores, switching often: no result is lost
    monkeypatch.setattr(arith, "usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert arith._block_map(lambda i: i * i, range(5000), 8) == [i * i for i in range(5000)]
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


def _wait_for(cond):
    deadline = time.monotonic() + 10
    while not cond():
        assert time.monotonic() < deadline
        time.sleep(0.001)


def test_block_map_failure_starts_no_further_item(monkeypatch):
    # thread 1 fails on item 1 once item 0 has started; the caller's item 0
    # ends only once that thread has, so the caller has seen the failure
    # before its next item
    monkeypatch.setattr(arith, "usable_cpus", lambda: 2)
    before = threading.active_count()
    started, zero_started = [], threading.Event()
    boom = ZeroDivisionError("item 1")

    def fn(i):
        started.append(i)
        if i == 1:
            zero_started.wait(10)
            raise boom
        zero_started.set()
        _wait_for(lambda: threading.active_count() == before)
        return i

    with pytest.raises(ZeroDivisionError) as info:
        arith._block_map(fn, range(10), 2)
    assert info.value is boom
    assert sorted(started) == [0, 1]
    assert threading.active_count() == before


@pytest.mark.parametrize("where", ["share", "join"])
def test_block_map_keyboard_interrupt_ends_the_call(where, monkeypatch):
    # a KeyboardInterrupt in the caller's own item 0, or delivered as SIGINT
    # while the caller, past its last item, joins thread 1: thread 1's
    # item 1 still ends, and none of its further items starts
    if where == "join" and not hasattr(signal, "pthread_kill"):
        pytest.skip("needs signal.pthread_kill")
    monkeypatch.setattr(arith, "usable_cpus", lambda: 2)
    before = threading.active_count()
    caller = threading.get_ident()
    started, one_started, interrupted = [], threading.Event(), threading.Event()
    interrupt = KeyboardInterrupt()

    def fn(i):
        started.append(i)
        if i == 0 and where == "share":
            one_started.wait(10)
            interrupted.set()
            raise interrupt
        if i == 1:
            if where == "share":
                one_started.set()
                interrupted.wait(10)
            else:
                _wait_for(lambda: 8 in started)
                time.sleep(0.05)  # the caller is past item 8, joining this thread
                signal.pthread_kill(caller, signal.SIGINT)
            time.sleep(0.05)  # the caller records the interrupt before this item ends
        return i

    with pytest.raises(KeyboardInterrupt) as info:
        arith._block_map(fn, range(10), 2)
    if where == "share":
        assert info.value is interrupt
        assert sorted(started) == [0, 1]
    else:
        assert sorted(started) == [0, 1, 2, 4, 6, 8]
    assert threading.active_count() == before


def test_block_map_joins_every_thread_after_an_interrupted_join(monkeypatch):
    # a KeyboardInterrupt raised inside Thread.join, as SIGINT can: the
    # caller still joins thread 1 and then thread 2, whose item is still
    # running when the first join is interrupted, before it raises
    monkeypatch.setattr(arith, "usable_cpus", lambda: 3)
    before = threading.active_count()
    interrupt = KeyboardInterrupt()
    joins = []
    real_join = threading.Thread.join

    def join(self, timeout=None):
        joins.append(self)
        if len(joins) == 1:
            raise interrupt
        return real_join(self, timeout)

    monkeypatch.setattr(threading.Thread, "join", join)
    started = []

    def fn(i):
        started.append(i)
        time.sleep(0.2 if i == 2 else 0.01)
        return i

    with pytest.raises(KeyboardInterrupt) as info:
        arith._block_map(fn, range(3), 3)
    assert info.value is interrupt
    assert sorted(started) == [0, 1, 2]
    assert threading.active_count() == before
    assert len(joins) == 3 and joins[0] is joins[1] is not joins[2]


@pytest.mark.parametrize(
    "d,h",
    [(-3, 1), (-4, 1), (-23, 3), (-47, 5), (-71, 7), (-84, 4), (-163, 1), (-479, 25), (-10007, 77)],
)
def test_class_number_formula(d, h):
    assert class_number_from_l(d) == h
    assert enumerate_reduced_forms(d).h == h


def test_primes_represented_by_square_classes():
    """Primitive representations of p^2 land exactly in the square classes.

    Composition-free oracle: enumerate solutions of Q(x,y) = p^2 with
    gcd(x, y) = 1 over every reduced class, then compare against the
    subgroup walk used by prime_power_class.
    """
    g = group_structure(enumerate_reduced_forms(-47))
    for p in (2, 3, 7):  # split primes for D = -47
        c = classify_prime(p, g)
        assert c.kind == "split"
        via_walk = {i for i, _, _ in prime_power_class(p, 2, g)}
        brute = set()
        n = p * p
        for i, f in enumerate(g.elements):
            ylim = math.isqrt(4 * f.a * n // 47) + 1
            found = False
            for y in range(-ylim, ylim + 1):
                xlim = math.isqrt(4 * f.c * n // 47) + 1
                for x in range(-xlim, xlim + 1):
                    if math.gcd(x, y) == 1 and evaluate(f, x, y) == n:
                        found = True
                        break
                if found:
                    break
            if found:
                brute.add(i)
        assert brute == via_walk


# ---------------------------------------------------------------------------
# prime -> class kernel against the per-prime scalar route

KERNEL_DISCS = (-3, -4, -7, -8, -23, -84, -420, -5460, -3299, -10007, -10000019)


def _assert_box_matches_scalar(requests):
    # chi exactly; for split p other than 2 the class of (p, b) or its
    # inverse, and exactly the scalar class for ramified p, inert p and p = 2
    for (g, primes), (chi, idx) in zip(requests, interval_classes(requests)):
        assert chi.dtype == np.int8 and idx.dtype == np.int64
        want_chi, want_idx = prime_classes(primes, g)
        assert chi.tolist() == want_chi.tolist()
        primes = np.asarray(primes, dtype=np.int64)
        either = (want_chi == 1) & (primes != 2)
        assert (idx[~either] == want_idx[~either]).all()
        mine, inverse = idx[either], g.inverse[want_idx[either]]
        assert ((mine == want_idx[either]) | (mine == inverse)).all()


def _primes_in(lo, hi):
    return np.concatenate(
        [np.empty(0, dtype=np.int64)] + list(iter_prime_blocks(lo, hi, cap=2**31))
    )


def _assert_kernel_matches_scalar(primes, g):
    # the oracle against the library's closed forms at the primes they
    # serve, p = 2 and p | D, then against the box at every prime
    chi, idx = prime_classes(primes, g)
    assert chi.dtype == np.int8 and idx.dtype == np.int64
    served = [i for i, p in enumerate(primes) if p == 2 or g.disc.value % p == 0]
    want = list(zip(chi.tolist(), idx.tolist()))
    assert [_scalar_class(primes[i], g) for i in served] == [want[i] for i in served]
    # one request per run of primes without a gap of 2^16
    primes = np.asarray(primes, dtype=np.int64)
    runs = np.split(primes, np.flatnonzero(np.diff(primes) > 2**16) + 1)
    _assert_box_matches_scalar([(g, run) for run in runs if len(run)])


@pytest.mark.parametrize("d", KERNEL_DISCS)
def test_prime_classes_matches_scalar_route(d):
    g = enumerate_reduced_forms(d)
    _assert_kernel_matches_scalar(sieve_primes(2 * 10**5).tolist(), g)
    # p - 1 = 7 * 2^20, 119 * 2^23, 15 * 2^27: long Tonelli-Shanks loops
    _assert_kernel_matches_scalar([7340033, 998244353, 2013265921], g)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(3, 10**7).map(lambda n: -n).filter(is_fundamental),
    st.integers(2, 2**31 - 3000),
    st.integers(1, 3000),
)
def test_prime_classes_random_windows(d, lo, width):
    g = enumerate_reduced_forms(d)
    _assert_kernel_matches_scalar(_primes_in(lo, lo + width).tolist(), g)
    _assert_box_matches_scalar([(g, _primes_in(lo, lo + width))])


@pytest.mark.parametrize("d", [-12, -27, -75, -36])
def test_prime_classes_rejects_conductor_primes(d):
    g = enumerate_reduced_forms(d)
    with pytest.raises(InvalidIdealBasis):
        prime_classes(sieve_primes(100), g)


def test_prime_classes_int64_limit():
    g = enumerate_reduced_forms(-23)
    [(chi, _)] = interval_classes([(g, [2**31 - 1])])
    assert chi.tolist() == [kronecker(-23, 2**31 - 1)]
    with pytest.raises(LimitTooLarge):
        interval_classes([(g, [3, 2**31 + 11])])
    # the limit is checked before the group is read, so its forms can be stale
    big = validate_discriminant(-(2**31 + 3))
    with pytest.raises(LimitTooLarge):
        interval_classes([(ClassGroup(big, g.abc), [3])])
    # classify_prime's texts as they were before it ran through the box;
    # the limit comes before the primality test (2^31 + 12 is even)
    for p, group, want in [
        (2**31 + 11, g, "prime 2147483659 at D = -23 is not below 2^31, the prime -> class limit"),
        (2**31 + 12, g, "prime 2147483660 at D = -23 is not below 2^31, the prime -> class limit"),
        (3, ClassGroup(big, g.abc), "|D| = 2147483651 is not below 2^31, the prime -> class limit"),
    ]:
        with pytest.raises(LimitTooLarge) as got:
            classify_prime(p, group)
        assert str(got.value) == want


# ---------------------------------------------------------------------------
# the closed forms at p = 2 and p | D, and classify_prime through the box

def _assert_closed_forms_match_oracle(g, primes) -> int:
    # _scalar_class against the oracle's Tonelli-Shanks route at the primes
    # it serves; where the oracle raises InvalidIdealBasis, the same text.
    # Returns how many raised.
    raised = 0
    for p in primes:
        try:
            want = scalar_class(p, g)
        except InvalidIdealBasis as exc:
            with pytest.raises(InvalidIdealBasis) as got:
                _scalar_class(p, g)
            assert str(got.value) == str(exc), (g.disc.value, p)
            raised += 1
        else:
            assert _scalar_class(p, g) == want, (g.disc.value, p)
    return raised


def _served_primes(d):
    return sorted({2, *sympy.primefactors(d)})


def test_closed_forms_match_oracle_every_small_disc():
    # every discriminant in [-2100, -3], fundamental or not
    discs = [d for d in range(-3, -2101, -1) if d % 4 in (0, 1)]
    groups = enumerate_groups(discs)
    raised = sum(_assert_closed_forms_match_oracle(g, _served_primes(g.disc.value)) for g in groups)
    assert raised > 0  # conductor primes of the non-fundamental D among them


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(3, 2**31 - 1).map(lambda n: -n).filter(lambda d: d % 4 in (0, 1)))
def test_closed_forms_match_oracle_large_discs(d):
    # a group holding only the classes of the oracle's ideals (p, b) at the
    # served primes (a conductor prime's form is not primitive, so it is
    # left out and both routes raise): enough for ideal_class_of there,
    # without enumerating every form of a D near 2^31
    primes = _served_primes(d)
    forms = {(1, d & 1, ((d & 1) - d) // 4)}
    for p in primes:
        b = sqrt_disc_mod_4p(d, p)
        if b is not None:
            f = reduce(QuadForm(p, b, (b * b - d) // (4 * p)))
            if math.gcd(*f) == 1:
                forms.add(f)
    g = ClassGroup(validate_discriminant(d), np.array(sorted(forms), dtype=np.int64).T)
    _assert_closed_forms_match_oracle(g, primes)


def test_classify_prime_matches_oracle():
    # ORACLE_DISCS at D's position k classifies 2, the primes dividing D
    # and every 227th prime below 2 * 10^4 from the k-th on, so that every
    # prime below 2 * 10^4 is classified at two or three of the D; each
    # one-prime box costs about 0.25 ms, too much for every (D, p) pair
    primes = sieve_primes(2 * 10**4).tolist()
    for k, g in enumerate(enumerate_groups(ORACLE_DISCS)):
        d = g.disc.value
        for p in sorted({*primes[k % 227 :: 227], *_served_primes(d)}):
            try:
                chi, idx = scalar_class(p, g)
            except InvalidIdealBasis as exc:
                with pytest.raises(InvalidIdealBasis) as got:
                    classify_prime(p, g)
                assert str(got.value) == str(exc), (d, p)
                continue
            c = classify_prime(p, g)
            assert c.p == p
            assert c.kind == {1: "split", -1: "inert", 0: "ramified"}[chi], (d, p)
            if chi == -1:
                assert (c.class_index, c.classes) == (None, {0})
            elif chi == 0:
                assert (c.class_index, c.classes) == (idx, {idx})
            else:
                assert c.class_index in (idx, g.inverse_idx(idx)), (d, p)
                assert c.classes == {idx, g.inverse_idx(idx)}


@pytest.mark.parametrize("p", [0, 1, 4, 9, 25])
def test_classify_prime_rejects_non_primes(p):
    g = enumerate_reduced_forms(-23)
    with pytest.raises(ValueError) as got:
        classify_prime(p, g)
    assert str(got.value) == f"p = {p} is not a prime"


# ---------------------------------------------------------------------------
# the form box over many (D, interval) requests

def test_interval_classes_match_scalar_route():
    # every D's p = 2 and primes dividing D, and intervals crossing 2^20,
    # near 10^7 and just below 2^31, interleaved across D
    groups = [enumerate_reduced_forms(d) for d in KERNEL_DISCS]
    spans = [(2, 3000), (2**20 - 5000, 2**20 + 5000), (10**7, 10**7 + 3000), (2**31 - 3000, 2**31 - 1)]
    requests = []
    for g in groups:
        ramified = [(p, p) for p in sympy.primefactors(g.disc.value)]
        requests += [(g, _primes_in(lo, hi)) for lo, hi in spans + ramified]
    order = np.random.default_rng(1).permutation(len(requests))
    _assert_box_matches_scalar([requests[i] for i in order])


def test_interval_classes_mark_only_their_own_interval():
    # intervals that share no norm: each request reads only its own marks;
    # 1000..1000 holds no prime
    g = enumerate_reduced_forms(-3299)
    primes = _primes_in(2, 5000)
    whole = interval_classes([(g, primes)])[0]
    cuts = [(2, 999), (1000, 1000), (1001, 4096), (4097, 5000)]
    parts = interval_classes([(g, primes[(primes >= lo) & (primes <= hi)]) for lo, hi in cuts])
    assert np.concatenate([chi for chi, _ in parts]).tolist() == whole[0].tolist()
    assert np.concatenate([idx for _, idx in parts]).tolist() == whole[1].tolist()


def test_interval_classes_empty_request():
    # a request without primes gets empty arrays, alone or beside others
    g = enumerate_reduced_forms(-23)
    [solo] = interval_classes([(g, [2, 3, 5, 59])])
    for requests in ([(g, [])], [(g, np.empty(0, dtype=np.int64)), (g, [2, 3, 5, 59])]):
        got = interval_classes(requests)
        chi, idx = got[0]
        assert chi.dtype == np.int8 and idx.dtype == np.int64
        assert len(chi) == len(idx) == 0
    assert [a.tolist() for a in got[1]] == [a.tolist() for a in solo]


BATCH_DISCS = (-3, -4, -23, -84, -420, -1999, -3299)


def test_prime_classes_batch_matches_per_d():
    groups = [enumerate_reduced_forms(d) for d in BATCH_DISCS]
    rng = np.random.default_rng(0)
    spans = [(2, 3000), (7340000, 7340100), (998244300, 998244400), (2**31 - 100, 2**31 - 1)]
    requests = []
    for g in groups:
        # p = 2, every prime dividing D, and split, inert and large primes
        ramified = [(p, p) for p in sympy.primefactors(g.disc.value) if p > 3000]
        requests += [(g, _primes_in(lo, hi)) for lo, hi in spans + ramified]
    order = rng.permutation(len(requests))  # requests of all D interleaved
    requests = [requests[i] for i in order]
    got = interval_classes(requests)
    for g in groups:
        mine = [i for i, req in enumerate(requests) if req[0] is g]
        want = interval_classes([requests[i] for i in mine])
        chi = np.concatenate([got[i][0] for i in mine])
        for i, (want_chi, want_idx) in zip(mine, want):
            assert got[i][0].tolist() == want_chi.tolist()
            assert got[i][1].tolist() == want_idx.tolist()
        assert {0, 1} <= set(chi.tolist())  # ramified and split primes both present


def test_prime_classes_batch_errors_name_the_d():
    good, bad = enumerate_reduced_forms(-23), enumerate_reduced_forms(-75)
    # 5 divides the conductor of -75 = 5^2 * -3
    with pytest.raises(InvalidIdealBasis, match="discriminant -75"):
        interval_classes([(good, [2, 3]), (bad, [5]), (good, [7])])
    got = interval_classes([(good, [2]), (bad, [3]), (good, [7])])
    assert [chi.tolist() for chi, _ in got] == [[1], [0], [-1]]
    # the 2^31 limits hold per request, and the error names the request's D
    g84 = enumerate_reduced_forms(-84)
    p = 2**31 - 1
    got = interval_classes([(good, [p]), (g84, [5])])
    assert [chi.tolist() for chi, _ in got] == [[kronecker(-23, p)], [kronecker(-84, 5)]]
    q = 2**31 + 11
    with pytest.raises(LimitTooLarge, match="D = -84"):
        interval_classes([(good, [p]), (g84, [q])])
    big = ClassGroup(validate_discriminant(-(2**31 + 3)), good.abc)
    with pytest.raises(LimitTooLarge, match=str(2**31 + 3)):
        interval_classes([(good, [3]), (big, [5])])
