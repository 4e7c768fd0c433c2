"""Runnable acceptance checks.

Each criterion is a standalone function returning a CriterionResult; run()
executes a selection and prints one PASS/FAIL line per criterion.  The
bounds and tolerances here are fixed contracts; loosening them is not an
option, a miss is reported as a failure.
"""
from __future__ import annotations

import functools
import math
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import arith, cli, stats
from .classgroup import enumerate_reduced_forms
from .qform import fundamental_discriminants, validate_discriminant
from .stats import bump_weight, get_weight, indicator_weight


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def sample_discriminants(n: int = 20, lo: int = -(10**5), hi: int = -(10**3)) -> list[int]:
    """Deterministic sample: n geometric anchors in [|hi|, |lo|], each moved
    up to the nearest fundamental discriminant (stays inside the range)."""
    out: list[int] = []
    for j in range(n):
        anchor = int(round(abs(hi) * (abs(lo) / abs(hi)) ** (j / (n - 1))))
        dv = -anchor
        while dv <= -3:
            if dv % 4 in (0, 1) and validate_discriminant(dv).fundamental:
                break
            dv += 1
        if dv not in out:
            out.append(dv)
    return out


def _criterion(number: int, name: str, limit: Optional[float] = None):
    """Make a check that returns (ok, detail) criterion number: timed, and
    passed when ok and, with a limit, done in under limit seconds."""

    def wrap(check: Callable[..., tuple[bool, str]]) -> Callable[..., CriterionResult]:
        @functools.wraps(check)
        def criterion(*args) -> CriterionResult:
            t0 = time.perf_counter()
            ok, detail = check(*args)
            dt = time.perf_counter() - t0
            return CriterionResult(number, name, ok and (limit is None or dt < limit), detail, dt)

        return criterion

    return wrap


@_criterion(1, "class-number cross-check", limit=60)
def criterion_1() -> tuple[bool, str]:
    """h from enumeration == class number formula for all -1e4 < D < -3."""
    total = agree = 0
    first_bad = None
    for dv in fundamental_discriminants(-9999, -4):
        g = enumerate_reduced_forms(dv)
        h_formula = arith.class_number_from_l(g.disc, 100 * -dv)
        total += 1
        if g.h == h_formula:
            agree += 1
        elif first_bad is None:
            first_bad = (dv, g.h, h_formula)
    detail = f"{agree}/{total} agree"
    if first_bad:
        detail += f"; first mismatch D={first_bad[0]}: enum {first_bad[1]} vs formula {first_bad[2]}"
    return agree == total, detail


@_criterion(2, "Dirichlet formula", limit=60)
def criterion_2() -> tuple[bool, str]:
    """Brute-force r(n, D) == the divisor formula exactly for n <= 5000; split max = 4."""
    nmax = 5000
    bad = []
    for dv in (-3, -4, -8, -23, -47, -71, -163):
        n, split_r = arith.divisor_formula_check(nmax, dv)
        if n is not None:
            bad.append(f"D={dv} first mismatch n={n}")
        elif dv < -4 and set(split_r.tolist()) != {4}:
            bad.append(f"D={dv} split r(p) != 4")
    return not bad, "7 discriminants, n <= 5000 all exact" if not bad else "; ".join(bad)


def _variance_cases():
    dv = -10007
    while not (dv % 4 in (0, 1) and validate_discriminant(dv).fundamental):
        dv += 1
    cases = []
    for disc in (-23, -47, dv):
        for t in (10.0**3, 10.0**4, 10.0**5):
            for w in (bump_weight(), indicator_weight()):
                cases.append((disc, t, w))
    return cases


GridReports = list[tuple[str, stats.PsiReport | stats.IdentityMismatch]]


def variance_grid_reports() -> GridReports:
    """Criteria 3 and 4's pinned grid: (case label, report or the mismatch it raised)."""
    out: GridReports = []
    for dv, t, w in _variance_cases():
        try:
            rep = stats.variance_report(enumerate_reduced_forms(dv), t, w)
        except stats.IdentityMismatch as exc:
            rep = exc
        out.append((f"D={dv} T={t:g} {w.kind}", rep))
    return out


@_criterion(3, "variance identity", limit=120)
def criterion_3(reports: Callable[[], GridReports] = variance_grid_reports) -> tuple[bool, str]:
    """Definitional vs spectral variance to 1e-9 relative on the pinned grid."""
    worst = 0.0
    fails = []
    for case, rep in reports():
        if isinstance(rep, stats.IdentityMismatch):
            fails.append(f"{case}: {rep}")
            continue
        scale = max(rep.variance, rep.variance_spectral, 1e-300)
        worst = max(worst, abs(rep.variance - rep.variance_spectral) / scale)
    detail = f"18 cases, worst relative gap {worst:.3e}" + (
        "; " + "; ".join(fails) if fails else ""
    )
    return not fails and worst <= 1e-9, detail


@_criterion(4, "Fourier round-trip")
def criterion_4(reports: Callable[[], GridReports] = variance_grid_reports) -> tuple[bool, str]:
    """Fourier roundtrip psi_chi -> psi_A to 1e-9 relative on the same grid."""
    worst = 0.0
    fails = []
    for case, rep in reports():
        if isinstance(rep, stats.IdentityMismatch):
            fails.append(f"{case}: {rep}")
            continue
        scale = max(1.0, float(np.max(np.abs(rep.psi_by_class))))
        worst = max(worst, rep.roundtrip_error / scale)
    detail = f"18 cases, worst roundtrip error {worst:.3e}" + (
        "; " + "; ".join(fails) if fails else ""
    )
    return not fails and worst <= 1e-9, detail


@_criterion(5, "main term", limit=30)
def criterion_5() -> tuple[bool, str]:
    """Main term: D=-23, bump, T=1e6, |psi_total/T - 1| <= 0.05."""
    g = enumerate_reduced_forms(-23)
    rep = stats.variance_report(g, 10.0**6, bump_weight())
    dev = rep.psi_total / rep.t - 1.0
    return abs(dev) <= 0.05, f"psi_total/T - 1 = {dev:+.4f}"


@_criterion(6, "GRH-scale variance", limit=300)
def criterion_6() -> tuple[bool, str]:
    """Var/(T log^2|D|) <= 10 at T = h^2 log^2|D| over the 20-sample."""
    rows = []
    worst = 0.0
    for dv in sample_discriminants():
        g = enumerate_reduced_forms(dv)
        t = max(2.0, g.h**2 * math.log(-dv) ** 2)
        rep = stats.variance_report(g, t, bump_weight())
        ratio = rep.variance / (t * math.log(-dv) ** 2)
        rows.append((dv, g.h, ratio))
        worst = max(worst, ratio)
    return worst <= 10, f"{len(rows)} discriminants, worst Var/(T log^2|D|) = {worst:.3f}"


@_criterion(7, "least-prime table D=-23")
def criterion_7() -> tuple[bool, str]:
    """Pinned least primes for D=-23 and the two exceptional counts."""
    g = enumerate_reduced_forms(-23)
    lp = stats.least_primes(g, 1000)
    expect = {(2, 1, 3): 2, (2, -1, 3): 2, (1, 1, 6): 23}
    got = {tuple(f): lp[i] for i, f in enumerate(g.elements)}
    checks = [
        got == expect,
        stats.exceptional_count(g, 3) == 1,
        stats.exceptional_count(g, 24) == 0,
        stats.exceptional_count_primes(g, 3) == 1,
        stats.exceptional_count_primes(g, 24) == 0,
    ]
    return all(checks), (
        f"p_A = {[got[tuple(f)] for f in g.elements]}, R(3)={stats.exceptional_count(g, 3)}, "
        f"R(24)={stats.exceptional_count(g, 24)}"
    )


@_criterion(8, "exceptional decay", limit=600)
def criterion_8() -> tuple[bool, str]:
    """R(D, h log^2.1|D|) <= 0.1 h and R(D, 100 h^2 log^2|D|) = 0 on the sample."""
    fails = []
    worst_frac = 0.0
    for dv in sample_discriminants():
        g = enumerate_reduced_forms(dv)
        logd = math.log(-dv)
        x1 = g.h * logd**2.1
        x2 = 100 * g.h**2 * logd**2
        lp, ln, _ = stats._least_sweep(g, x2)
        for tag, vec in (("prime", lp), ("ideal", ln)):
            r1 = stats.count_exceptional(vec, x1)
            r2 = stats.count_exceptional(vec, x2)
            worst_frac = max(worst_frac, r1 / (0.1 * g.h) if g.h else 0.0)
            if r1 > 0.1 * g.h:
                fails.append(f"D={dv} R_{tag}(h log^2.1)={r1} > 0.1h={0.1 * g.h:.1f}")
            if r2 != 0:
                fails.append(f"D={dv} R_{tag}(100 h^2 log^2)={r2} != 0")
    detail = (
        f"20 discriminants, worst R(X1)/(0.1h) = {worst_frac:.3f}; R(X2) = 0 everywhere"
        if not fails
        else "; ".join(fails[:4])
    )
    return not fails, detail


@_criterion(9, "structural floor")
def criterion_9() -> tuple[bool, str]:
    """p_A >= A and 4AC >= |D| exactly, for every class of every tested D."""
    tested = sample_discriminants() + [-3, -4, -8, -23, -47, -71, -163, -10007]
    bad = []
    n_classes = 0
    for dv in tested:
        g = enumerate_reduced_forms(dv)
        lp = stats.least_primes(g, 100 * g.h**2 * math.log(-dv) ** 2 + 10)
        for i, f in enumerate(g.elements):
            n_classes += 1
            if 4 * f.a * f.c < -dv:
                bad.append(f"D={dv} class {f}: 4AC < |D|")
            if lp[i] is not None and lp[i] < f.a:
                bad.append(f"D={dv} class {f}: p_A = {lp[i]} < A")
    return not bad, f"{n_classes} classes checked, zero exceptions" if not bad else "; ".join(bad[:4])


@_criterion(10, "scan determinism")
def criterion_10() -> tuple[bool, str]:
    """scan [-2000,-3] run twice: byte-identical CSV."""
    outs = []
    try:
        for _ in range(2):
            fd, path = tempfile.mkstemp(suffix=".csv")
            os.close(fd)
            outs.append(path)
            rc = cli.main(["scan", "--range", "-2000", "-3", "--out", path])
            if rc != 0:
                return False, f"scan exited {rc}"
        with open(outs[0], "rb") as fa, open(outs[1], "rb") as fb:
            a, b = fa.read(), fb.read()
        same = a == b
        nrows = a.count(b"\n") - 1
        return same, f"{nrows} rows, outputs {'identical' if same else 'DIFFER'} ({len(a)} bytes)"
    finally:
        for p in outs:
            if os.path.exists(p):
                os.unlink(p)


CRITERIA: list[Callable[[], CriterionResult]] = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
]


def run(numbers: Optional[list[int]] = None) -> list[CriterionResult]:
    results = []
    # criteria 3 and 4 share one computation of the grid, timed by the first to run
    grid = functools.cache(variance_grid_reports)
    for i, fn in enumerate(CRITERIA, 1):
        if numbers and i not in numbers:
            continue
        res = fn(grid) if fn in (criterion_3, criterion_4) else fn()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} criterion {res.number} ({res.name}): {res.detail} [{res.seconds:.1f}s]",
            flush=True,
        )
    return results
