"""CLI outputs against the golden files in tests/golden/.

Ints, strings and `none@cap` compare exactly, as do the exit code and
stderr of the cases that freeze them, and scalar floats at 1e-12
relative.  Entries of the per-class arrays compare at 1e-12 of the
array's largest magnitude: a small |psi_chi| moves by several 1e-12
relative under any reordering of its sum.
"""
import csv
import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).parent / "golden" / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

REL = 1e-12
ARRAY_KEYS = {"psi_by_class", "psi_by_char_abs"}


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= REL * scale


def _csv_cell(got: str, want: str, where: str) -> None:
    try:
        int(want)
        is_int = True
    except ValueError:
        is_int = False
    if is_int or want == "none@cap":
        assert got == want, where
        return
    g, w = float(got), float(want)
    assert _close(g, w, max(abs(g), abs(w))), f"{where}: {got} vs {want}"


def _compare_csv(got_text: str, want_text: str) -> None:
    got = list(csv.reader(got_text.splitlines()))
    want = list(csv.reader(want_text.splitlines()))
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0]
    for r, (grow, wrow) in enumerate(zip(got[1:], want[1:]), 1):
        assert len(grow) == len(wrow), f"row {r}"
        for col, g, w in zip(header, grow, wrow):
            _csv_cell(g, w, f"row {r} {col}")


def _compare_json(got, want, where: str = "$") -> None:
    assert type(got) is type(want), f"{where}: {type(got)} vs {type(want)}"
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for k in want:
            if k in ARRAY_KEYS:
                assert len(got[k]) == len(want[k]), f"{where}.{k}"
                scale = max((abs(x) for x in want[k]), default=0.0)
                for i, (g, w) in enumerate(zip(got[k], want[k])):
                    assert _close(g, w, scale), f"{where}.{k}[{i}]: {g} vs {w}"
            else:
                _compare_json(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert _close(got, want, max(abs(got), abs(want))), f"{where}: {got} vs {want}"
    else:
        assert got == want, where


@pytest.mark.parametrize("name,argv", make_golden.CASES, ids=[c[0] for c in make_golden.CASES])
def test_golden(name, argv, tmp_path):
    got = make_golden.write(name, argv, tmp_path).read_text()
    want = (make_golden.GOLDEN_DIR / name).read_text()
    if name.endswith(".csv"):
        _compare_csv(got, want)
    else:
        _compare_json(json.loads(got), json.loads(want))
    if name in make_golden.ERR_CASES:
        err = name + ".err"
        assert (tmp_path / err).read_text() == (make_golden.GOLDEN_DIR / err).read_text()
