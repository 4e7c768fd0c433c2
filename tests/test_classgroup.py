import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from classprime import classgroup, cli, heegner, stats
from classprime.classgroup import (
    ClassGroup,
    InvalidIdealBasis,
    enumerate_groups,
    enumerate_reduced_forms,
    group_structure,
    group_structures,
    ideal_class_of,
)
from classprime import qform
from classprime.qform import (
    InvariantViolation,
    QuadForm,
    compose,
    identity_form,
    is_fundamental,
    validate_discriminant,
)
from oracles import characters, opposite, power, reference_reduced_forms, reference_structure

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
        g = enumerate_reduced_forms(d)
        assert g.elements == tuple(sorted(brute))


def test_nonfundamental_discriminant_is_enumerated():
    g = enumerate_reduced_forms(-12)
    assert g.nonfundamental and g.h == 1
    assert not enumerate_reduced_forms(-23).nonfundamental


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
    g = group_structure(enumerate_reduced_forms(d))
    assert g.orders() == orders
    for i, j in itertools.product(range(g.h), repeat=2):
        k = g.compose_idx(i, j)
        assert g.elements[k] == compose(g.elements[i], g.elements[j])


@pytest.mark.parametrize("d", [-479, -3299, -5460])
def test_power_idx_agrees_with_form_power(d):
    g = group_structure(enumerate_reduced_forms(d))
    for i, k in itertools.product(range(g.h), range(-4, 5)):
        assert g.elements[g.power_idx(i, k)] == power(g.elements[i], k)


def test_ambiguous_class_count_matches_two_torsion():
    # order-2 elements (plus identity) = forms fixed by negation of b
    for d in (-84, -407, -479, -3299, -5460):
        g = group_structure(enumerate_reduced_forms(d))
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
        g = group_structure(enumerate_reduced_forms(d))
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
    g12 = group_structure(enumerate_reduced_forms(-12))
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
# h = 6563 (large-h, a walk of width 1), 6 x 24 (walk radix (2, 6, 6, 2)),
# 2 x 2 x 24 (a walk of width 4), and from h = 256 on 2 x 2 x 2 x 2 x 18,
# 2 x 2 x 2 x 40, 2 x 2 x 64 and two non-fundamental D whose conductor 2
# divides: (2, 2, 2, 2, 16) and (2, 132)
ORACLE_DISCS = [d for d in range(-2000, -2) if is_fundamental(d)] + [
    -3299, -5460, -10000019, -10022939, -10289639, -100036, -100020,
    -340340, -1000020, -200004, -1021020, -1200012,
]


def test_oracle_discs_cover_h_from_1_to_6563():
    # one walk at every h: small groups and eight from h = 256 on
    hs = [enumerate_reduced_forms(d).h for d in ORACLE_DISCS]
    assert (min(hs), max(hs)) == (1, 6563)
    assert sum(h >= 256 for h in hs) == 8


def test_structure_matches_reference_peeling():
    for d in ORACLE_DISCS:
        g = group_structure(enumerate_reduced_forms(d))
        basis, coords = reference_structure(enumerate_reduced_forms(d))
        assert g.basis == basis, d
        assert g.coords == coords, d


def _count_compositions(monkeypatch) -> tuple[list, list]:
    """Record each qform.compose call, and the pairs of each array pass."""
    calls, passes = [], []
    real_compose, real_maps = qform.compose, classgroup._compose_maps
    monkeypatch.setattr(qform, "compose", lambda f, k: calls.append(1) or real_compose(f, k))
    monkeypatch.setattr(
        classgroup, "_compose_maps", lambda pairs: passes.append(len(pairs)) or real_maps(pairs)
    )
    return calls, passes


@pytest.mark.parametrize("d", [-3299, -5460, -10007])
def test_structure_makes_at_most_h_compositions(d, monkeypatch):
    # no form is composed alone: one array pass per walk generator
    gens = len(_walk_generators(enumerate_reduced_forms(d)))
    calls, passes = _count_compositions(monkeypatch)

    def refuse(*args):
        raise AssertionError("group_structure uses index arithmetic of its own")

    monkeypatch.setattr(ClassGroup, "compose_idx", refuse)
    monkeypatch.setattr(ClassGroup, "power_idx", refuse)
    group_structure(enumerate_reduced_forms(d))
    assert calls == []
    assert passes == [1] * gens


def _walk_generators(g: ClassGroup) -> list[int]:
    """The walk's generators x_i: the classes at positions prod(radix[:i])."""
    [p] = classgroup._presentations([g])
    return [int(p.at[math.prod(p.radix[:i])]) for i in range(len(p.radix))]


# three |D| just below 2^31, the limit of the prime -> class step
# (h = 19865, 6942 and 17408), where int64 is tightest
INT64_EDGE_DISCS = [-2147483647, -2147483643, -2147483640]


@pytest.mark.parametrize(
    "discs", [ORACLE_DISCS, *([d] for d in INT64_EDGE_DISCS)],
    ids=["oracle", *map(str, INT64_EDGE_DISCS)],
)
def test_compose_map_is_form_composition(discs):
    # every class times every walk generator, at every h and in one array
    # pass for all the groups: the map is the class of the composed form
    pairs = [(g, x) for g in enumerate_groups(discs) for x in _walk_generators(g)]
    for (g, x), got in zip(pairs, classgroup._compose_maps(pairs), strict=True):
        fx = g.elements[x]
        assert got == [g.index_of(compose(f, fx)) for f in g.elements], (g.disc.value, x)


@pytest.mark.parametrize("d", [-3299, -2700, -100020, -1200012])
def test_compose_map_for_every_class_as_x(d):
    # x whose a is not prime, so that 1 < gcd(a, ell) < ell for some a
    g = enumerate_reduced_forms(d)
    maps = classgroup._compose_maps([(g, x) for x in range(g.h)])
    for x, fx in enumerate(g.elements):
        want = [g.index_of(compose(f, fx)) for f in g.elements]
        assert maps[x] == want, (d, x)


def test_structure_composes_in_one_pass_per_round(monkeypatch):
    # h = 6563 and h = 27 walked together: no compose call, one array pass
    # per lockstep round, and one map per walk generator (a walk by one
    # composition per class makes 26 for -1999)
    groups = enumerate_groups([-10289639, -1999])
    gens = [len(_walk_generators(g)) for g in enumerate_groups([-10289639, -1999])]
    calls, passes = _count_compositions(monkeypatch)
    assert group_structures(groups) == groups
    assert calls == []
    assert len(passes) == max(gens) and sum(passes) == sum(gens)


def _structure_arrays(g: ClassGroup) -> tuple:
    return (g.abc.tolist(), g.inverse.tolist(), g.basis, g.coords, g.position.tolist())


def test_batched_groups_match_one_at_a_time():
    # every discriminant in [-2100, -3], fundamental or not, and the oracle
    # discriminants (h = 1 to 6563, two of conductor 2) in one mixed
    # batch: enumerated in shared passes and walked in lockstep, each
    # group is the one built alone
    discs = [d for d in range(-3, -2101, -1) if d % 4 in (0, 1)] + ORACLE_DISCS
    built = group_structures(enumerate_groups(discs))
    assert [g.disc.value for g in built] == discs
    for d, g in zip(discs, built):
        alone = group_structure(enumerate_reduced_forms(d))
        assert _structure_arrays(g) == _structure_arrays(alone), d


def test_broken_group_fails_only_its_own_place_in_a_batch():
    # -340340 less its last form among two whole groups: its composite
    # that is no class fails it, with the text it raises alone
    full = enumerate_reduced_forms(-340340)
    broken = lambda: ClassGroup(full.disc, full.abc[:, :-1])
    with pytest.raises(InvariantViolation) as alone:
        group_structure(broken())
    groups = enumerate_groups([-3299, -5460])
    out = group_structures([groups[0], broken(), groups[1]])
    assert out[0] is groups[0] and out[2] is groups[1]
    assert type(out[1]) is InvariantViolation and str(out[1]) == str(alone.value)
    assert str(out[1]).startswith("composite (")
    for g, d in zip(groups, (-3299, -5460)):
        assert _structure_arrays(g) == _structure_arrays(group_structure(enumerate_reduced_forms(d)))


def test_enumeration_failures_stay_with_their_discriminant():
    out = enumerate_groups([-23, 5, -4, -7])
    assert [type(g) for g in out] == [ClassGroup, qform.NotADiscriminant, ClassGroup, ClassGroup]
    assert [g.h for g in out if isinstance(g, ClassGroup)] == [3, 1, 1]
    assert enumerate_groups([]) == []


def test_batches_hold_one_pass_of_pairs():
    # the pairs a batch enumerates sum to at most _FORM_PAIRS, or a larger
    # D goes alone; _pair_count is the enumeration's own count
    for d in (-3, -4, -7, -8, -2000, -2003, -786432, -1000003):
        top = math.isqrt(-d // 3)
        assert classgroup._pair_count(d) == sum((a - d % 2) // 2 + 1 for a in range(1, top + 1))
    discs = list(qform.fundamental_discriminants(-800000, -780000))[::50] + [-2000, -3]
    batches = list(classgroup.batches(discs))
    assert sum(batches, []) == discs
    for batch in batches:
        pairs = sum(map(classgroup._pair_count, batch))
        assert pairs <= classgroup._FORM_PAIRS or len(batch) == 1
    assert any(len(b) == 1 and classgroup._pair_count(b[0]) > classgroup._FORM_PAIRS for b in batches)


def test_inverse_position_and_box_forms_from_the_form_arrays():
    # the arrays enumerate_reduced_forms builds against the QuadForm path
    for d in (-23, -84, -3299, -5460, -340340, -1021020, -10289639):
        g = group_structure(enumerate_reduced_forms(d))
        assert g.inverse.tolist() == [g.index_of(opposite(f)) for f in g.elements]
        rows = [(*f, i) for i, f in enumerate(g.elements) if f.b >= 0]
        assert g.box_forms.tolist() == [list(r) for r in rows]
        grid = np.ravel_multi_index(tuple(np.array(g.coords).T), g.orders())
        assert g.position.tolist() == grid.tolist()
        assert [g._class_at[p] for p in g.position.tolist()] == list(range(g.h))
        built = ClassGroup(g.disc, g.abc)
        assert np.array_equal(built.abc, np.array(g.elements).T)


def test_structure_of_a_broken_group_is_an_invariant_violation():
    # two of the three forms of D = -23: (2, -1, 3)^2 = (2, 1, 3) is missing
    g = ClassGroup(validate_discriminant(-23), enumerate_reduced_forms(-23).abc[:, :2])
    with pytest.raises(InvariantViolation):
        group_structure(g)


def _ideal_class_or_error(a, b, g):
    try:
        return ideal_class_of(a, b, g)
    except InvalidIdealBasis as exc:
        return str(exc)


def test_group_built_from_its_forms_alone():
    # h, nonfundamental and the form index come from disc and abc;
    # -340340 (h = 288) takes the array side of the composition walk, and
    # the ideal (2, 2) of -12 is not invertible
    for d in (-23, -3299, -340340, -12):
        g = enumerate_reduced_forms(d)
        built = ClassGroup(g.disc, g.abc)
        assert (built.h, built.nonfundamental) == (g.h, g.nonfundamental)
        group_structure(built)
        assert (built.basis, built.coords) == (g.basis, g.coords)
        assert [built.index_of(f) for f in g.elements] == list(range(g.h))
        ideals = [(f.a, f.b) for f in g.elements] + [(2, 2), (3, 1)]
        assert [_ideal_class_or_error(a, b, built) for a, b in ideals] == [
            _ideal_class_or_error(a, b, g) for a, b in ideals
        ]


def test_group_is_its_discriminant_and_form_array():
    assert [f.name for f in dataclasses.fields(ClassGroup) if f.init] == ["disc", "abc"]
    g = enumerate_reduced_forms(-23)
    assert not g.abc.flags.writeable
    for bad in ([1, 1, 6], np.zeros((2, 3))):
        with pytest.raises(ValueError, match=r"shape \(3, h\)"):
            ClassGroup(g.disc, bad)


def test_groups_compare_by_identity():
    # abc, an array, has no truth value, so == cannot compare fields
    g = enumerate_reduced_forms(-23)
    assert g == g and {g: 1}[g] == 1
    assert (enumerate_reduced_forms(-23) == enumerate_reduced_forms(-23)) is False


def test_commands_at_array_walk_size_build_no_form_objects():
    # every h takes the array walk (h = 27 and 288 here): the tables read
    # g.abc, and only a reader that needs QuadForm objects builds g.elements
    for d in (-3299, -340340):
        g = enumerate_reduced_forms(d)
        stats.variance_report(g, 10.0**4, stats.bump_weight())
        lp, _, _ = stats._least_sweep(g, 10.0**5)
        heegner.repulsion_report(g, lp)
        heegner.heegner_points(g)
        cli._forms_table(g)
        assert "elements" not in vars(g)
        assert g.elements[0] == identity_form(d) and "elements" in vars(g)


def test_enumeration_matches_the_pair_loop(monkeypatch):
    # every discriminant down to -3000, non-fundamental ones included, and
    # two near -10^7, -10012811 = 5 (mod 8) with every even a skipped;
    # small passes split the pairs of one a across passes
    discs = [d for d in range(-3, -3001, -1) if d % 4 in (0, 1)] + [-10000019, -10012811]
    for d in discs:
        g = classgroup.enumerate_reduced_forms(d)
        assert list(g.elements) == reference_reduced_forms(d)
        assert all(type(f) is QuadForm and type(f.a) is int for f in g.elements[:2])
    monkeypatch.setattr(classgroup, "_FORM_PAIRS", 7)
    for d in (-3, -4, -84, -3299, -2700):
        assert list(classgroup.enumerate_reduced_forms(d).elements) == (
            reference_reduced_forms(d)
        )
    assert [enumerate_reduced_forms(d).h for d in INT64_EDGE_DISCS] == [19865, 6942, 17408]


def _rows_kept(discs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows (k, a) of enumerate_groups over discs, and the mask of
    those classgroup._roots_possible keeps."""
    dvs = np.array(discs, dtype=np.int64)
    tops = np.array([math.isqrt(-d // 3) for d in discs], dtype=np.int64)
    row_k = np.repeat(np.arange(len(discs)), tops)
    row_a = np.arange(1, len(row_k) + 1) - np.repeat(np.cumsum(tops) - tops, tops)
    return row_k, row_a, classgroup._roots_possible(dvs, tops, row_k, row_a)


def test_skipped_rows_have_no_square_root():
    # every d down to -3000 in one batch: no a that is skipped has a b
    # with b^2 = d (mod 4a), whatever its form would be (reduced or not,
    # primitive or not), so the skip is exact for every discriminant
    discs = [d for d in range(-3, -3001, -1) if d % 4 in (0, 1)]
    row_k, row_a, keep = _rows_kept(discs)
    for k, a in zip(row_k[~keep].tolist(), row_a[~keep].tolist()):
        assert all((b * b - discs[k]) % (4 * a) for b in range(2 * a)), (discs[k], a)
    assert 0 < (~keep).sum() < len(keep)
    # the share of the (a, b) pairs left at the largest |D| the CLI tests
    discs = [-10000019, -10289639, -1000000003, -2147483647]
    row_k, row_a, keep = _rows_kept(discs)
    pairs = (row_a - (np.array(discs)[row_k] & 1)) // 2 + 1
    left = [pairs[keep & (row_k == k)].sum() / pairs[row_k == k].sum() for k in range(len(discs))]
    assert [round(x, 2) for x in left] == [0.19, 0.63, 0.08, 0.19]
