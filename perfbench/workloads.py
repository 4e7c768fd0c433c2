"""Workloads: the seed -> CLI commands mapping and the counts computed
independently of the package under test.

Each seed maps to one entry of a small pool whose entries cost about the
same at the seed commit, so that the spread of a metric across seeds
reflects timing noise rather than a change of problem size.  The last
entry of every pool is held out: tune on the others and confirm a claimed
gain on the held-out one.  `make_refs.py screen` prints the candidates the
pools were chosen from; `make_refs.py record` writes the reference outputs.
"""
from __future__ import annotations

import gzip
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"

# scan-2k: `scan --range LO HI` over [-2000 - o, -3 - o].  A wider offset
# range than 20 changes the amount of work by more than the wall_s bound.
SCAN_LO, SCAN_HI = -2000, -3
SCAN_OFFSETS = tuple(range(20))

# primes-1e7: D = -p for p = 3 mod 8 (so the least-prime sweep stops in the
# same sieve block), p >= 10^7, taken in ascending order when h is within 5%
# of h(-10000019) = 1275 and group_structure makes within 20% as many
# compositions.  The cost of group_structure follows the factorisation of h,
# not h itself.
PRIMES_POOL = (
    -10000019,
    -10000667,
    -10005539,
    -10012811,
    -10019939,
    -10022531,
    -10022939,
)
PRIMES_T = 10**7

# large-h: fundamental D = 1 mod 4 in [-1.03e7, -1e7] ranked by an Euler
# product estimate of h over primes below 2000, kept when -D is prime (odd h,
# as for primes-1e7), h is within 5% of the top-ranked D's (h = 6563) and
# group_structure makes within 20% as many compositions.  --l-terms is
# explicit: the default 100|D| runs out of memory.
LARGE_H_POOL = (-10289639, -10057031, -10285679)
LARGE_H_T = 10**5
LARGE_H_X_CAP = 10**6

WORKLOADS = ("scan-2k", "primes-1e7", "large-h")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    key: str  # names the input; references are stored under it
    commands: tuple[tuple[str, ...], ...]
    held_out: bool
    scan_window: tuple[int, int] | None = None


def _pick(pool, seed: int):
    i = seed % len(pool)
    return pool[i], i == len(pool) - 1


def build(name: str, seed: int) -> Workload:
    """The commands one iteration of workload `name` runs for `seed`."""
    if name == "scan-2k":
        off, held = _pick(SCAN_OFFSETS, seed)
        lo, hi = SCAN_LO - off, SCAN_HI - off
        cmd = ("scan", "--range", str(lo), str(hi))
        return Workload(name, seed, f"offset{off}", (cmd,), held, (lo, hi))
    if name == "primes-1e7":
        d, held = _pick(PRIMES_POOL, seed)
        cmds = (
            ("variance", "--disc", str(d), "--t", "1e7"),
            ("least-primes", "--disc", str(d)),
        )
        return Workload(name, seed, f"D{d}", cmds, held)
    if name == "large-h":
        d, held = _pick(LARGE_H_POOL, seed)
        cmds = (
            ("forms", "--disc", str(d)),
            ("variance", "--disc", str(d), "--t", "1e5"),
            ("heegner", "--disc", str(d), "--x-cap", "1e6", "--l-terms", str(-2 * d)),
        )
        return Workload(name, seed, f"D{d}", cmds, held)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# references

def ref_path(name: str, key: str) -> Path:
    # every scan window reads rows from one table covering all offsets
    return REFS / (f"{name}.json.gz" if name == "scan-2k" else f"{name}-{key}.json.gz")


def load_reference(wl: Workload) -> dict:
    with gzip.open(ref_path(wl.name, wl.key), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(path: Path, ref: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the file byte-identical when the content is
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(ref, sort_keys=True, separators=(",", ":")).encode())


# ---------------------------------------------------------------------------
# independent counts

def _squarefree_mask(n: np.ndarray) -> np.ndarray:
    ok = np.ones(len(n), dtype=bool)
    top = int(n.max()) if len(n) else 0
    for q in primes_upto(math.isqrt(top)).tolist():
        ok &= n % (q * q) != 0
    return ok


def fundamental_discs(lo: int, hi: int) -> list[int]:
    """Fundamental discriminants D in [lo, hi] (D < 0), decreasing."""
    d = np.arange(min(hi, -1), lo - 1, -1, dtype=np.int64)
    m = -d
    odd = (d % 4 == 1) & _squarefree_mask(m)
    q = np.where(d % 4 == 0, m // 4, 1)
    even = (d % 4 == 0) & np.isin((-q) % 4, (2, 3)) & _squarefree_mask(q)
    return d[odd | even].tolist()


def primes_upto(n: int) -> np.ndarray:
    """Primes <= n by a plain sieve of Eratosthenes."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    comp = np.zeros(n + 1, dtype=bool)
    comp[:2] = True
    for p in range(2, math.isqrt(n) + 1):
        if not comp[p]:
            comp[p * p :: p] = True
    return np.flatnonzero(~comp)


class PrimePi:
    """pi(x) by binary search in one sieve."""

    def __init__(self, limit: int):
        self.limit = limit
        self.primes = primes_upto(limit)

    def __call__(self, x: float) -> int:
        n = math.floor(x)
        if n > self.limit:
            raise ValueError(f"pi({x}) beyond sieve limit {self.limit}")
        return int(np.searchsorted(self.primes, n, side="right"))


def _num(cell: str) -> float | None:
    return None if cell == "none@cap" else float(cell)


def prime_jobs(wl: Workload, ref: dict) -> list[tuple[float, float]]:
    """(lo, hi) ranges whose primes one iteration must classify.

    Per variance call the primes in [T, 2T]; per least-prime sweep the
    primes up to the largest least prime, or up to the cap when a class
    has none below it.  Read off the reference, outside the timed region.
    """
    if wl.name == "scan-2k":
        col = {c: i for i, c in enumerate(ref["header"])}
        xcols = [c for c in ref["header"] if c[0] == "x" and c[1:].isdigit()]
        jobs = []
        for d in fundamental_discs(*wl.scan_window):
            row = ref["rows"][str(d)]
            t = float(row[col["t"]])
            top = _num(row[col["max_p"]])
            if top is None:
                top = max(float(row[col[c]]) for c in xcols)
            jobs += [(t, 2 * t), (0, top)]
        return jobs
    cmds = ref["commands"]
    if wl.name == "primes-1e7":
        top = _num(cmds[1]["summary"]["max_least_prime"])
        if top is None:
            top = float(cmds[1]["summary"]["x_cap"])
        return [(PRIMES_T, 2 * PRIMES_T), (0, top)]
    top = _num(cmds[2]["summary"]["max_least_prime"])
    return [(LARGE_H_T, 2 * LARGE_H_T), (0, LARGE_H_X_CAP if top is None else top)]


def primes_to_classify(wl: Workload, ref: dict) -> int:
    jobs = prime_jobs(wl, ref)
    pi = PrimePi(math.floor(max(hi for _, hi in jobs)))
    return sum(pi(hi) - pi(lo) for lo, hi in jobs)


def discs_per_iteration(wl: Workload) -> int:
    if wl.scan_window is not None:
        return len(fundamental_discs(*wl.scan_window))
    return 1
