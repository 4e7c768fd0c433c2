"""Correctness gate: compare one iteration's CLI outputs with the references.

An operation is one CLI call, and each scan discriminant is one more.  A
call fails on a nonzero exit or on any table or summary cell that differs
from the reference; a scan discriminant fails when its row is missing,
duplicated, unexpected or differs in any cell.  Integer cells and
`none@cap` must match exactly, float cells within 1e-9 relative, the
package's own identity tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

REL_TOL = 1e-9


@dataclass
class Output:
    header: list[str]
    rows: list[list[str]]
    summary: dict[str, str]


def parse_output(table: str, stderr: str) -> Output:
    """CSV table (as written to --out) plus the `# key=value` stderr summary."""
    lines = [ln for ln in table.splitlines() if ln]
    header = lines[0].split(",") if lines else []
    rows = [ln.split(",") for ln in lines[1:]]
    summary = {}
    for ln in stderr.splitlines():
        if ln.startswith("# ") and "=" in ln:
            key, _, val = ln[2:].partition("=")
            summary[key] = val
    return Output(header, rows, summary)


def _int(cell: str) -> int | None:
    try:
        return int(cell)
    except ValueError:
        return None


def cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    if want == "none@cap" or got == "none@cap":
        return False
    if _int(want) is not None and _int(got) is not None:
        return False  # both integers and textually different
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if not (math.isfinite(g) and math.isfinite(w)):
        return False
    return abs(g - w) <= REL_TOL * max(abs(g), abs(w))


def rows_match(got: list[str], want: list[str]) -> bool:
    return len(got) == len(want) and all(map(cells_match, got, want))


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def check_command(rc: int, out: Output, want: dict, label: str, v: Verdict) -> None:
    """One non-scan call: exit 0 and every table and summary cell matching."""
    if rc != 0:
        v.add(False, f"{label}: exit code {rc}")
        return
    bad = []
    if out.header != want["header"]:
        bad.append(f"header {out.header} != {want['header']}")
    elif len(out.rows) != len(want["rows"]):
        bad.append(f"{len(out.rows)} rows, expected {len(want['rows'])}")
    else:
        bad += [f"row {i}" for i, (g, w) in enumerate(zip(out.rows, want["rows"]))
                if not rows_match(g, w)]
    for key, val in want["summary"].items():
        if key not in out.summary or not cells_match(out.summary[key], val):
            bad.append(f"summary {key}={out.summary.get(key)!r}, expected {val!r}")
    v.add(not bad, f"{label}: {'; '.join(bad[:3])}")


def check_scan(
    rc: int, out: Output, want: dict, expected: list[int], label: str, v: Verdict
) -> None:
    """The scan call, then one operation per discriminant in `expected`.

    `expected` comes from the benchmark's own fundamental-discriminant
    test, so a row the program silently drops counts as a failure.
    """
    header_ok = out.header == want["header"]
    v.add(rc == 0 and header_ok,
          f"{label}: exit code {rc}" if rc else f"{label}: header {out.header}")
    got: dict[str, list[list[str]]] = {}
    if header_ok:
        for row in out.rows:
            got.setdefault(row[0], []).append(row)
    for d in expected:
        rows = got.pop(str(d), [])
        ok = len(rows) == 1 and rows_match(rows[0], want["rows"][str(d)])
        v.add(ok, f"{label}: D={d} " + ("missing" if not rows else "differs"))
    for d, rows in got.items():  # rows for discriminants not in the window
        for _ in rows:
            v.add(False, f"{label}: unexpected row D={d}")
