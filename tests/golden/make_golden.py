"""Write the golden CLI outputs that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/make_golden.py [NAME ...]

With names, only those files are written.  The files were frozen before the prime -> class step, the character
transform and the scan-row builder were consolidated; the cases at
D = -10000019 and the scan over [-2000, -3] were frozen before that step
became array code; the remaining criterion-3 variance cases and the
heegner tables were frozen before the class group computed its structure
on first use; forms at D = -340340 and variance at D = -1000020 were frozen
before group_structure's walk composed by array maps; variance at
D = -10000019, T = 1e7 was frozen before the prime source stopped
sieving past its table on a fixed block grid; the CSV tables of forms,
least-primes and heegner at D = -340340 were frozen before those tables
were written column by column; scan's failure paths (a sieve cap that
fails some D, an h cap that fails some D), with their exit code and
stderr, were frozen before one generator took over each scan D.
Refactors must reproduce them.  Regenerate them only for a change that is meant to alter
output.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

# The cases whose exit code and stderr are frozen too, in NAME.err: a line
# "exit=N", then stderr as written
ERR_CASES = {"scan_-100_-3_sieve-cap1000.csv", "scan_-30_-3_h-cap1.csv"}


def _cases() -> list[tuple[str, list[str]]]:
    cases = [("scan_-300_-3.csv", ["scan", "--range", "-300", "-3"])]
    for d in (-23, -84, -420, -3299, -10007):
        for t in ("1e3", "1e5"):
            for w in ("bump", "indicator"):
                cases.append((
                    f"variance_{d}_{t}_{w}.json",
                    ["variance", "--disc", str(d), "--t", t, "--weight", w,
                     "--format", "json"],
                ))
    for cmd in ("least-primes", "forms"):
        for d in (-3, -4, -23, -84, -420, -3299):
            cases.append((f"{cmd}_{d}.json", [cmd, "--disc", str(d), "--format", "json"]))
    # h = 1275 at D = -10000019: multi-block least-prime sweep and every
    # residue of p mod 8 at large |D|
    cases.append(("scan_-2000_-3.csv", ["scan", "--range", "-2000", "-3"]))
    for w in ("bump", "indicator"):
        cases.append((
            f"variance_-10000019_1e6_{w}.json",
            ["variance", "--disc", "-10000019", "--t", "1e6", "--weight", w,
             "--format", "json"],
        ))
    cases.append((
        "least-primes_-10000019.json",
        ["least-primes", "--disc", "-10000019", "--format", "json"],
    ))
    # the rest of acceptance criterion 3's grid (D in {-23, -47, -10007},
    # T in {1e3, 1e4, 1e5}, both weights), and heegner, which had no file
    for d, ts in ((-47, ("1e3", "1e4", "1e5")), (-23, ("1e4",)), (-10007, ("1e4",))):
        for t in ts:
            for w in ("bump", "indicator"):
                cases.append((
                    f"variance_{d}_{t}_{w}.json",
                    ["variance", "--disc", str(d), "--t", t, "--weight", w,
                     "--format", "json"],
                ))
    for d in (-23, -84, -3299):
        cases.append((f"heegner_{d}.json", ["heegner", "--disc", str(d), "--format", "json"]))
    # non-cyclic groups with h >= 256, frozen before group_structure's walk
    # became array maps: the greedy basis orders psi_by_char_abs
    cases.append(("forms_-340340.json", ["forms", "--disc", "-340340", "--format", "json"]))
    cases.append((
        "variance_-1000020_1e5_bump.json",
        ["variance", "--disc", "-1000020", "--t", "1e5", "--format", "json"],
    ))
    # the one psi case whose segment, [1e7, 2e7], lies past the table of
    # the primes up to 2^21
    cases.append((
        "variance_-10000019_1e7_bump.json",
        ["variance", "--disc", "-10000019", "--t", "1e7", "--format", "json"],
    ))
    # the per-class CSV tables at a non-cyclic h = 288 whose 16 forms with
    # b = 0 must print heegner_re as 0, not -0
    for cmd in ("forms", "least-primes", "heegner"):
        cases.append((f"{cmd}_-340340.csv", [cmd, "--disc", "-340340"]))
    # scan's failure paths: a sieve cap that fails the D whose sqrt(2T) or
    # 2T passes it, and an h cap that fails the D whose h passes it
    cases.append((
        "scan_-100_-3_sieve-cap1000.csv",
        ["scan", "--range", "-100", "-3", "--sieve-cap", "1000"],
    ))
    cases.append(("scan_-30_-3_h-cap1.csv", ["scan", "--range", "-30", "-3", "--h-cap", "1"]))
    return cases


CASES = _cases()


def write(name: str, argv: list[str], directory: Path) -> Path:
    """Run the CLI on argv with its table written to directory/name.  A
    case of ERR_CASES writes its exit code and stderr to directory/NAME.err;
    any other must exit 0."""
    from classprime import cli

    path = directory / name
    err = io.StringIO()
    with contextlib.redirect_stderr(err) if name in ERR_CASES else contextlib.nullcontext():
        rc = cli.main(argv + ["--out", str(path)])
    if name in ERR_CASES:
        (directory / (name + ".err")).write_text(f"exit={rc}\n{err.getvalue()}")
    elif rc != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {rc}")
    return path


if __name__ == "__main__":
    import sys

    wanted = set(sys.argv[1:])
    unknown = wanted - {name for name, _ in CASES}
    if unknown:
        sys.exit(f"unknown golden file(s): {', '.join(sorted(unknown))}")
    for name, argv in CASES:
        if not wanted or name in wanted:
            print(write(name, argv, GOLDEN_DIR))
