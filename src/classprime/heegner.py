"""CM points of reduced forms and the least-prime repulsion picture.

Each reduced form (A, B, C) of discriminant D < 0 has a root
z = (-B + i sqrt(|D|)) / (2A) in the standard fundamental domain of the
modular group; its height sqrt(|D|)/(2A) is large exactly when A is
small, and small A forces a large least prime, which is the repulsion
effect the reports tabulate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import arith, stats
from .classgroup import ClassGroup
from .qform import InvariantViolation


@dataclass(frozen=True)
class HeegnerPoint:
    class_index: int
    re: float
    im: float
    a: int
    b: int
    c: int


def heegner_point(g: ClassGroup, i: int) -> HeegnerPoint:
    """CM point of elements[i]: re = -B/(2A), im = sqrt(|D|)/(2A)."""
    f = g.elements[i]
    sd = math.sqrt(-g.disc.value)
    pt = HeegnerPoint(i, -f.b / (2 * f.a), sd / (2 * f.a), f.a, f.b, f.c)
    # fundamental domain: |re| <= 1/2 and im >= sqrt(3)/2, with slack for rounding
    if abs(pt.re) > 0.5 + 1e-12 or pt.im < math.sqrt(3) / 2 - 1e-12:
        raise InvariantViolation(f"CM point of {f} lies outside the fundamental domain")
    return pt


def heegner_points(g: ClassGroup) -> list[HeegnerPoint]:
    return [heegner_point(g, i) for i in range(g.h)]


def coefficient_bound_fraction(g: ClassGroup, psi_value: float) -> float:
    """Fraction of classes with max(|A|,|B|,|C|) < sqrt(|D|) * psi_value."""
    bound = math.sqrt(-g.disc.value) * psi_value
    good = sum(
        1 for f in g.elements if max(abs(f.a), abs(f.b), abs(f.c)) < bound
    )
    return good / g.h


def cramer_prediction(g: ClassGroup, psi_value: float, l_one: float) -> float:
    """Conditional least-prime scale sqrt(|D|) * L(1,chi) * psi * log|D|."""
    absd = -g.disc.value
    return math.sqrt(absd) * l_one * psi_value * math.log(absd)


def cramer_class_number_pairing(g: ClassGroup, psi_value: float) -> tuple[float, float]:
    """The same scale rewritten through h: ((2 pi / w) h psi log|D|, 2 pi / w).

    sqrt(|D|) L(1,chi) equals (2 pi / w) h exactly, so the prediction is
    h log|D| times an explicit constant; both are reported side by side.
    """
    absd = -g.disc.value
    const = 2 * math.pi / arith.unit_count(g.disc.value)
    return const * g.h * psi_value * math.log(absd), const


@dataclass
class RepulsionRow:
    class_index: int
    a: int
    heegner_re: float
    heegner_im: float
    least_prime: Optional[int]
    bound_ok: bool  # the exact inequality p_A >= A


@dataclass
class RepulsionReport:
    rows: list[RepulsionRow]
    max_least_prime: Optional[int]
    median_least_prime: Optional[float]
    argmax_a_class: int


def repulsion_report(
    g: ClassGroup, least: Sequence[Optional[int]]
) -> RepulsionReport:
    """Per-class (A, height, least prime) with the exact floor p_A >= A."""
    rows = []
    for i, f in enumerate(g.elements):
        p = least[i]
        pt = heegner_point(g, i)
        rows.append(RepulsionRow(i, f.a, pt.re, pt.im, p, p is None or p >= f.a))
    max_p, median_p = stats.least_prime_summary(least)
    return RepulsionReport(
        rows=rows,
        max_least_prime=max_p,
        median_least_prime=median_p,
        argmax_a_class=max(range(g.h), key=lambda i: g.elements[i].a),
    )
