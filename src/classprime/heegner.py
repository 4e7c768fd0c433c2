"""CM points of reduced forms and the least-prime repulsion picture.

Each reduced form (A, B, C) of discriminant D < 0 has a root
z = (-B + i sqrt(|D|)) / (2A) in the standard fundamental domain of the
modular group; its height sqrt(|D|)/(2A) is large exactly when A is
small, and small A forces a large least prime, which is the repulsion
effect the reports tabulate.  Per-class results are columns in class
index order, computed from the (3, h) array g.abc.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import arith, stats
from .classgroup import ClassGroup
from .qform import InvariantViolation, QuadForm


@dataclass(frozen=True)
class HeegnerPoint:
    class_index: int
    re: float
    im: float
    a: int
    b: int
    c: int


class CMPoints(NamedTuple):
    """float64 real parts and heights of CM points, one per class asked for."""

    re: np.ndarray
    im: np.ndarray


def heegner_points(g: ClassGroup, classes=slice(None)) -> CMPoints:
    """CM points of the classes (all of them by default): re = -B/(2A),
    im = sqrt(|D|)/(2A).  B is negated as an integer, so B = 0 gives
    re = 0, not -0.  InvariantViolation if a point lies outside the
    fundamental domain."""
    abc = g.abc[:, classes]
    a, b, _ = abc
    re = -b / (2 * a)
    im = math.sqrt(-g.disc.value) / (2 * a)
    # fundamental domain: |re| <= 1/2 and im >= sqrt(3)/2, with slack for rounding
    out = np.flatnonzero((np.abs(re) > 0.5 + 1e-12) | (im < math.sqrt(3) / 2 - 1e-12))
    if out.size:
        f = QuadForm(*abc[:, out[0]].tolist())
        raise InvariantViolation(f"CM point of {f} lies outside the fundamental domain")
    return CMPoints(re, im)


def heegner_point(g: ClassGroup, i: int) -> HeegnerPoint:
    """CM point of class i, from heegner_points."""
    re, im = heegner_points(g, [i])
    return HeegnerPoint(i, float(re[0]), float(im[0]), *g.abc[:, i].tolist())


def coefficient_bound_fraction(g: ClassGroup, psi_value: float) -> float:
    """Fraction of classes with max(|A|,|B|,|C|) < sqrt(|D|) * psi_value."""
    bound = math.sqrt(-g.disc.value) * psi_value
    return np.count_nonzero(np.abs(g.abc).max(axis=0) < bound) / g.h


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
class RepulsionReport:
    """Columns in class index order, then the summary."""

    a: np.ndarray
    heegner_re: np.ndarray
    heegner_im: np.ndarray
    least_prime: list[Optional[int]]
    bound_ok: np.ndarray  # bool: the exact inequality p_A >= A, or no prime found
    max_least_prime: Optional[int]
    median_least_prime: Optional[float]
    argmax_a_class: int


def repulsion_report(
    g: ClassGroup, least: Sequence[Optional[int]]
) -> RepulsionReport:
    """Per-class (A, CM point, least prime) with the exact floor p_A >= A."""
    a = g.abc[0]
    re, im = heegner_points(g)
    p = np.array([0 if q is None else q for q in least], dtype=np.int64)
    max_p, median_p = stats.least_prime_summary(least)
    return RepulsionReport(
        a=a,
        heegner_re=re,
        heegner_im=im,
        least_prime=list(least),
        bound_ok=(p == 0) | (p >= a),
        max_least_prime=max_p,
        median_least_prime=median_p,
        argmax_a_class=int(np.argmax(a)),  # the first class of maximal A
    )
