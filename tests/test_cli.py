import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from classprime import arith, classgroup, cli, qform, stats
from classprime.cli import UsageError, eval_scale, fmt_num, parse_scale


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# scale rules

def test_parse_scale():
    assert parse_scale("1000") == (1000.0, 0.0, 0.0)
    assert parse_scale("h*log2.1") == (1.0, 1.0, 2.1)
    assert parse_scale("h2*log2") == (1.0, 2.0, 2.0)
    assert parse_scale("100*h2*log2") == (100.0, 2.0, 2.0)
    assert parse_scale("0.5*h") == (0.5, 1.0, 0.0)
    assert parse_scale("h*h*log") == (1.0, 2.0, 1.0)


def test_parse_scale_rejects_junk():
    for bad in ("x2", "h2+log2", "log2*junk", ""):
        with pytest.raises(UsageError):
            parse_scale(bad)


def test_eval_scale():
    assert eval_scale("h2*log2", 5, 1000) == pytest.approx(25 * math.log(1000) ** 2)
    assert eval_scale("42", 999, 10**6) == 42.0


def test_fmt_num():
    assert fmt_num(None) == "none@cap"
    assert fmt_num(True) == "1" and fmt_num(False) == "0"
    assert fmt_num(3) == "3"
    assert fmt_num(math.pi) == "3.14159265359"
    assert fmt_num(1e-13) == "1e-13"


# ---------------------------------------------------------------------------
# subcommands, happy paths

def test_forms_csv(capsys):
    rc, out, err = run_cli(["forms", "--disc", "-23"], capsys)
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["a"] for r in rows] == ["1", "2", "2"]
    assert "# h=3" in err


def test_forms_json_matches_csv(capsys):
    rc, out_csv, _ = run_cli(["forms", "--disc", "-84"], capsys)
    rc2, out_json, _ = run_cli(["forms", "--disc", "-84", "--format", "json"], capsys)
    assert rc == rc2 == 0
    data = json.loads(out_json)
    assert data["h"] == 4 and data["orders"] == [2, 2]
    csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(csv_rows) == len(data["rows"]) == 4
    for got, want in zip(csv_rows, data["rows"]):
        assert int(got["a"]) == want["a"]
        assert int(got["b"]) == want["b"]
        assert int(got["c"]) == want["c"]


def test_least_primes_schema(capsys):
    rc, out, err = run_cli(["least-primes", "--disc", "-23"], capsys)
    assert rc == 0
    reader = csv.reader(io.StringIO(out))
    header = next(reader)
    assert header == [
        "class_index",
        "a",
        "b",
        "c",
        "heegner_im",
        "least_prime",
        "is_ramified_prime",
    ]
    body = list(reader)
    assert [r[5] for r in body] == ["23", "2", "2"]
    assert [r[6] for r in body] == ["1", "0", "0"]  # 23 | D, 2 does not
    assert "# r_ideal_at_x_h2_log2=0" in err


def test_least_primes_none_at_cap(capsys):
    rc, out, _ = run_cli(
        ["least-primes", "--disc", "-23", "--x-cap", "10"], capsys
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["least_prime"] == "none@cap"


def test_variance_csv_json_parity(capsys):
    args = ["variance", "--disc", "-23", "--t", "1000", "--weight", "bump"]
    rc, out_csv, _ = run_cli(args, capsys)
    rc2, out_json, _ = run_cli(args + ["--format", "json"], capsys)
    assert rc == rc2 == 0
    row = next(csv.DictReader(io.StringIO(out_csv)))
    data = json.loads(out_json)["rows"][0]
    for key in ("variance", "variance_spectral", "psi_total", "var_ratio"):
        assert float(row[key]) == pytest.approx(data[key], rel=1e-12)
    payload = json.loads(out_json)
    assert len(payload["psi_by_class"]) == 3
    assert len(payload["psi_by_char_abs"]) == 3


def test_dirichlet_check_ok(capsys):
    rc, out, _ = run_cli(["dirichlet-check", "--disc", "-47", "--n-max", "800"], capsys)
    assert rc == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["status"] == "ok" and row["max_split_r"] == "4"


def test_dirichlet_check_oracle_mismatch_exit_4(monkeypatch, capsys):
    import numpy as np

    from classprime import arith

    real = arith.dirichlet_r_upto

    def corrupted(nmax, d):
        out = real(nmax, d)
        out[7] += 2  # sabotage one value
        return out

    monkeypatch.setattr(arith, "dirichlet_r_upto", corrupted)
    rc, out, err = run_cli(["dirichlet-check", "--disc", "-23", "--n-max", "50"], capsys)
    assert rc == 4
    assert "oracle mismatch" in err
    row = next(csv.DictReader(io.StringIO(out)))  # row still emitted first
    assert row["status"] == "mismatch" and row["first_mismatch"] == "7"


def test_heegner_summary(capsys):
    rc, out, err = run_cli(["heegner", "--disc", "-23", "--psi-value", "1.0"], capsys)
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert float(rows[0]["heegner_im"]) == pytest.approx(math.sqrt(23) / 2)
    assert "# coefficient_bound_fraction=0.666666666667" in err
    assert "# pairing_constant=3.14159265359" in err


def test_scan_small_range(capsys):
    rc, out, _ = run_cli(["scan", "--range", "-30", "-3"], capsys)
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    ds = [int(r["d"]) for r in rows]
    assert ds == sorted(ds, reverse=True)
    assert ds[0] == -3  # decreasing D means increasing |D|
    assert set(r["h"] for r in rows if r["d"] == "-23") == {"3"}


def test_scan_json_is_array(capsys):
    rc, out, _ = run_cli(["scan", "--range", "-30", "-3", "--format", "json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert isinstance(data, list)
    assert data[0]["d"] == -3


def test_scan_skips_nonfundamental(capsys):
    rc, out, _ = run_cli(["scan", "--range", "-16", "-3"], capsys)
    assert rc == 0
    ds = [int(r["d"]) for r in csv.DictReader(io.StringIO(out))]
    assert -12 not in ds and -16 not in ds and -9 not in ds
    assert ds == [-3, -4, -7, -8, -11, -15]


def test_selftest_subset(capsys):
    rc, out, err = run_cli(["selftest", "--only", "7"], capsys)
    assert rc == 0
    assert "PASS criterion 7" in out


# ---------------------------------------------------------------------------
# exit codes

def test_exit_2_bad_disc(capsys):
    for argv in (
        ["forms", "--disc", "5"],
        ["forms", "--disc", "-6"],
        ["forms"],
        ["variance", "--disc", "-23"],  # missing --t
        ["variance", "--disc", "-23", "--t", "1"],
        ["scan"],  # missing --range
    ):
        rc, _, err = run_cli(argv, capsys)
        assert rc == 2, argv
        assert "error:" in err


def test_exit_2_nonfundamental_in_scan_path(capsys):
    # scan skips them; direct commands accept with strict=False
    rc, out, err = run_cli(["forms", "--disc", "-12"], capsys)
    assert rc == 0  # forms tolerates non-fundamental input
    rc, _, err = run_cli(["least-primes", "--disc", "-12", "--x-cap", "bogus*"], capsys)
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["least-primes", "--disc", "-12"],
    ["least-primes", "--disc", "-27"],
    ["variance", "--disc", "-75", "--t", "1000"],
    ["heegner", "--disc", "-36"],
])
def test_exit_2_non_invertible_prime_ideal(argv, capsys):
    # a prime dividing the conductor lies under no invertible ideal
    rc, _, err = run_cli(argv, capsys)
    assert rc == 2
    assert "error:" in err and "not invertible" in err


@pytest.mark.parametrize("d", ["-12", "-27", "-75"])
def test_dirichlet_check_nonfundamental_exit_2(d, capsys):
    # the divisor formula holds only for fundamental D (at -12 it fails at
    # n = 2, at -27 at n = 3), so a non-fundamental D is bad input, not a
    # counterexample
    rc, out, err = run_cli(["dirichlet-check", "--disc", d, "--n-max", "100"], capsys)
    assert rc == 2
    assert "error:" in err and "not a fundamental discriminant" in err
    assert out == ""


def test_exit_3_identity_violation(monkeypatch, capsys):
    from classprime import stats

    def broken(g, T, w, **kw):
        raise stats.IdentityMismatch("forced for the exit-code contract")

    monkeypatch.setattr(stats, "variance_report", broken)
    rc, _, err = run_cli(["variance", "--disc", "-23", "--t", "100"], capsys)
    assert rc == 3
    assert "identity violation" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["forms", "--disc", "-23", "--threads", "9"],
        ["forms", "--disc", "-23", "--h-cap", "0"],
        ["forms", "--disc", "-23", "--sieve-cap", "1"],
        ["variance", "--disc", "-23", "--t", "100", "--threads", "2"],
        ["dirichlet-check", "--disc", "-23", "--sieve-cap", "1"],
        ["selftest", "--h-cap", "1"],
    ],
)
def test_flags_only_where_used(argv, capsys):
    # --threads and --h-cap belong to scan; --sieve-cap to the sieving commands
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _checkout_env() -> dict:
    """The environment of a fresh interpreter that imports classprime from
    this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports classprime from this checkout."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_checkout_env()
    )


def test_closed_output_pipe_exits_141_without_traceback():
    # 6563 rows, more than the pipe holds, so the CLI is still writing
    # when the reader leaves after three lines, as `| head -3` does
    argv = [sys.executable, "-m", "classprime.cli", "forms", "--disc", "-10289639"]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_checkout_env()
    )
    lines = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert lines == ["class_index,a,b,c\n", "0,1,1,2572410\n", "1,2,-1,1286205\n"]
    assert err == ""


def test_import_leaves_scipy_unloaded():
    res = _python(
        "-c",
        "import sys, classprime.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_invariant_checks_survive_python_O():
    # (5, 9, 5) has discriminant -19 but is not reduced: its CM point has re = -0.9
    code = textwrap.dedent(
        """
        from classprime.classgroup import ClassGroup
        from classprime.heegner import heegner_point
        from classprime.qform import InvariantViolation, QuadForm, validate_discriminant

        assert False, "unreachable under -O"
        g = ClassGroup(disc=validate_discriminant(-19), elements=(QuadForm(5, 9, 5),), h=1)
        try:
            heegner_point(g, 0)
        except InvariantViolation as exc:
            print("raised:", exc)
        """
    )
    res = _python("-O", "-c", code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("raised:")


def test_sieve_cap_exit_2(capsys):
    rc, _, err = run_cli(
        ["variance", "--disc", "-23", "--t", "1e9", "--sieve-cap", "100000"], capsys
    )
    assert rc == 2
    assert "error:" in err


def test_int64_limit_exit_2(capsys):
    # the sieve cap allows primes past 2^31, where the kernel stops being exact
    rc, _, err = run_cli(
        ["variance", "--disc", "-23", "--t", "2.2e9", "--sieve-cap", "5000000000"], capsys
    )
    assert rc == 2
    assert "error:" in err and "2^31" in err


def test_scan_counts_failures_exit_2(monkeypatch, capsys):
    structured = []
    real = classgroup.group_structure
    monkeypatch.setattr(classgroup, "group_structure", lambda g: structured.append(g.h) or real(g))
    rc, out, err = run_cli(
        ["scan", "--range", "-60", "-3", "--h-cap", "1"], capsys
    )
    assert rc == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["d"]) for r in rows] == [-3, -4, -7, -8, -11, -19, -43]
    assert err.count("scan: D=") == 14 and "scan: D=-15 failed: h = 2" in err
    assert "# failed=14" in err.splitlines()
    # h is capped first, and the kept D have h = 1, whose character grid needs no basis
    assert structured == []


def test_scan_identity_mismatch_exit_3(monkeypatch, capsys):
    from classprime import stats

    real = stats.variance_report

    def broken_at_15(g, T, w, **kw):
        if g.disc.value == -15:
            raise stats.IdentityMismatch("forced for the exit-code contract")
        return real(g, T, w, **kw)

    monkeypatch.setattr(stats, "variance_report", broken_at_15)
    rc, out, err = run_cli(["scan", "--range", "-30", "-3", "--h-cap", "2"], capsys)
    assert rc == 3  # an identity violation outranks the h-cap input errors
    assert "scan: D=-15 failed: forced" in err and "# failed=2" in err
    assert {"-15", "-23"}.isdisjoint(r["d"] for r in csv.DictReader(io.StringIO(out)))


@pytest.mark.parametrize(
    "argv",
    [["variance", "--disc", "-23", "--t", "100"], ["scan", "--range", "-8", "-3"]],
)
def test_invariant_violation_exit_3(argv, monkeypatch, capsys):
    from classprime import stats
    from classprime.qform import InvariantViolation

    def broken(g, T, w, **kw):
        raise InvariantViolation("forced for the exit-code contract")

    monkeypatch.setattr(stats, "variance_report", broken)
    rc, _, err = run_cli(argv, capsys)
    assert rc == 3
    assert "forced for the exit-code contract" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["least-primes", "--disc", "-23", "--eps", "1e6"],
        ["least-primes", "--disc", "-23", "--x-cap", "inf"],
        ["least-primes", "--disc", "-23", "--x-cap", "1e400"],
        ["least-primes", "--disc", "-23", "--x-cap", "nan"],
        ["variance", "--disc", "-23", "--t", "inf"],
        ["variance", "--disc", "-23", "--t", "nan"],
        ["scan", "--range", "-30", "-3", "--t-rule", "1e400"],
        ["heegner", "--disc", "-23", "--psi-value", "nan"],
        ["heegner", "--disc", "-23", "--psi-value", "inf"],
        ["heegner", "--disc", "-23", "--l-terms", "5"],
    ],
)
def test_unusable_numbers_exit_2(argv, capsys):
    rc, _, err = run_cli(argv, capsys)
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--range", "-30", "-3", "--threads", "2"],
        ["selftest", "--only", "99"],
        ["variance", "--disc", "-23", "--t", "100", "--wei", "indicator"],  # no abbreviations
    ],
)
def test_parser_rejects_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["variance", "--disc", "-23", "--t", "100"], ["scan", "--range", "-8", "-3"]]
)
def test_value_error_is_not_bad_input(argv, monkeypatch):
    from classprime import stats

    def crash(g, T, w, **kw):
        raise ValueError("internal bug")

    monkeypatch.setattr(stats, "variance_report", crash)
    with pytest.raises(ValueError, match="internal bug"):
        cli.main(argv)


@settings(max_examples=40, deadline=None)
@given(
    dv=st.integers(-3000, 5),
    cmd=st.sampled_from([["forms"], ["least-primes"], ["variance", "--t", "1000"], ["heegner"]]),
)
def test_any_disc_ends_in_documented_exit(dv, cmd):
    assert cli.main(cmd + ["--disc", str(dv), "--out", os.devnull]) in (0, 2, 3, 4)


def test_scan_does_not_swallow_internal_errors(monkeypatch):
    from classprime import stats

    def crash(g, T, w, **kw):
        raise ZeroDivisionError("internal bug")

    monkeypatch.setattr(stats, "variance_report", crash)
    with pytest.raises(ZeroDivisionError):
        cli.main(["scan", "--range", "-8", "-3"])


# ---------------------------------------------------------------------------
# config file and precedence

def test_config_file_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("disc = -23\nt = 1000\nweight = indicator\n# comment\n\n")
    rc, out, _ = run_cli(["variance", "--config", str(cfg)], capsys)
    assert rc == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["weight"] == "indicator" and row["t"] == "1000"


def test_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("disc = -23\nt = 1000\nweight = indicator\n")
    rc, out, _ = run_cli(
        ["variance", "--config", str(cfg), "--weight", "bump"], capsys
    )
    assert rc == 0
    assert next(csv.DictReader(io.StringIO(out)))["weight"] == "bump"


def test_bad_config_line_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("this line has no equals sign\n")
    rc, _, err = run_cli(["forms", "--config", str(cfg), "--disc", "-23"], capsys)
    assert rc == 2


def test_missing_config_exit_2(capsys):
    rc, _, err = run_cli(["forms", "--config", "/nonexistent.conf", "--disc", "-23"], capsys)
    assert rc == 2


def test_config_lists_match_flags(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("range = -30, -3\nx-rule = h*log2, 50\n")
    rc, from_conf, _ = run_cli(["scan", "--config", str(cfg)], capsys)
    flags = ["scan", "--range", "-30", "-3", "--x-rule", "h*log2", "--x-rule", "50"]
    rc2, from_flags, _ = run_cli(flags, capsys)
    assert rc == rc2 == 0 and from_conf == from_flags
    rc, out, _ = run_cli(["scan", "--config", str(cfg), "--x-rule", "50"], capsys)
    assert rc == 0 and out.splitlines()[0].count(",x") == 1  # the flag replaces the list


@pytest.mark.parametrize(
    "argv, text",
    [
        (["forms", "--disc", "-23"], "bogus = 3"),
        (["forms", "--disc", "-23"], "threads = 9"),  # a key of no subcommand
        (["forms", "--disc", "-23"], "h-cap = 0"),  # a key of another subcommand
        (["forms", "--disc", "-23"], "sieve-cap = 1"),
        (["forms", "--disc", "-23"], "format = xml"),
        (["forms", "--disc", "-23"], "config = other.conf"),
        (["variance", "--disc", "-23"], "t = abc"),
        (["variance", "--disc", "-23", "--t", "100"], "weight = foo"),
        (["variance", "--disc", "-23"], "t = inf"),
        (["scan"], "range = -30"),
    ],
)
def test_bad_config_exit_2(argv, text, tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text(text + "\n")
    try:
        rc = cli.main(argv + ["--config", str(cfg)])
    except SystemExit as exc:  # argparse rejected the value
        rc = exc.code
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_out_file(tmp_path, capsys):
    path = tmp_path / "forms.csv"
    rc = cli.main(["forms", "--disc", "-23", "--out", str(path)])
    assert rc == 0
    text = path.read_text()
    assert text.startswith("class_index,a,b,c\n")
    assert text.count("\n") == 4


def test_out_unopenable_exit_2(tmp_path, capsys):
    rc, _, err = run_cli(
        ["forms", "--disc", "-23", "--out", str(tmp_path / "missing" / "x.csv")], capsys
    )
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,calls",
    [
        (["least-primes", "--disc", "-3299"], 0),
        (["heegner", "--disc", "-3299"], 0),
        (["forms", "--disc", "-3299"], 1),
        (["variance", "--disc", "-3299", "--t", "1000"], 1),
    ],
)
def test_structure_computed_only_when_read(argv, calls, monkeypatch, capsys):
    seen = []
    real = classgroup.group_structure
    monkeypatch.setattr(classgroup, "group_structure", lambda g: seen.append(g.h) or real(g))
    rc, _, _ = run_cli(argv, capsys)
    assert rc == 0
    assert seen == [27] * calls


def test_variance_composes_only_inside_group_structure(monkeypatch, capsys):
    # compose_idx is coordinate arithmetic, so the small-prime loop of
    # psi_by_class composes no forms
    calls = {"inside": 0, "outside": 0}
    depth = [0]
    real_compose, real_structure = qform.compose, classgroup.group_structure

    def counting(f, k):
        calls["inside" if depth[0] else "outside"] += 1
        return real_compose(f, k)

    def structure(g):
        depth[0] += 1
        try:
            return real_structure(g)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(qform, "compose", counting)
    monkeypatch.setattr(classgroup, "compose", counting)
    monkeypatch.setattr(classgroup, "group_structure", structure)
    rc, _, _ = run_cli(["variance", "--disc", "-3299", "--t", "1e5"], capsys)
    assert rc == 0
    assert 0 < calls["inside"] <= 27
    assert calls["outside"] == 0


def test_scan_x_rules_shape_columns(capsys):
    rc, out, _ = run_cli(
        ["scan", "--range", "-30", "-3", "--x-rule", "h*log2", "--x-rule", "50"],
        capsys,
    )
    assert rc == 0
    header = out.splitlines()[0].split(",")
    assert header[:8] == ["d", "h", "x1", "r1_ideal", "r1_prime", "x2", "r2_ideal", "r2_prime"]


# ---------------------------------------------------------------------------
# scan's batches: failures stay with their D, rows match the golden tables

GOLDEN = Path(__file__).parent / "golden"


def _golden_rows(name: str) -> tuple[str, dict[str, str]]:
    header, *lines = (GOLDEN / name).read_text().splitlines()
    return header, {line.split(",", 1)[0]: line for line in lines}


def test_scan_sieve_cap_failures_keep_their_d(capsys):
    rc, out, err = run_cli(["scan", "--range", "-100", "-3", "--sieve-cap", "1000"], capsys)
    assert rc == 2
    assert err.splitlines() == [
        "scan: D=-71 failed: sieve limit 1780 exceeds cap 1000",
        "scan: D=-87 failed: sieve limit 1435 exceeds cap 1000",
        "scan: D=-95 failed: sieve limit 2654 exceeds cap 1000",
        "# failed=3",
    ]
    header, want = _golden_rows("scan_-300_-3.csv")
    lines = out.splitlines()
    assert lines[0] == header and len(lines) == 1 + 28
    for line in lines[1:]:
        assert line == want[line.split(",", 1)[0]]


def test_scan_identity_mismatch_inside_a_batch(monkeypatch, capsys):
    real = stats.variance_report

    def broken_at_1003(g, T, w, **kw):
        if g.disc.value == -1003:
            raise stats.IdentityMismatch("forced for the exit-code contract")
        return real(g, T, w, **kw)

    monkeypatch.setattr(stats, "variance_report", broken_at_1003)
    rc, out, err = run_cli(["scan", "--range", "-2000", "-3"], capsys)
    assert rc == 3
    assert err.splitlines() == [
        "scan: D=-1003 failed: forced for the exit-code contract",
        "# failed=1",
    ]
    want = (GOLDEN / "scan_-2000_-3.csv").read_text().splitlines()
    assert out.splitlines() == [line for line in want if not line.startswith("-1003,")]


def test_scan_classifies_in_few_rounds(monkeypatch, capsys):
    # one arith.interval_classes call per round of stats.run_jobs: rounds
    # of 2^18 lattice points take about 96 calls, rounds of 2^16 took 336
    calls = []
    real = arith.interval_classes
    monkeypatch.setattr(arith, "interval_classes", lambda requests: calls.append(1) or real(requests))
    rc, out, _ = run_cli(["scan", "--range", "-2000", "-3"], capsys)
    assert rc == 0
    assert out == (GOLDEN / "scan_-2000_-3.csv").read_text()
    assert 0 < len(calls) <= 100


@pytest.mark.parametrize("argv", [
    ["scan", "--range", "-300", "-3"],
    ["scan", "--range", "-300", "-3", "--x-rule", "5000", "--t-rule", "50"],
])
def test_scan_batches_match_the_single_d_path(argv, monkeypatch, capsys):
    # tiny passes and rounds split the batches, a D's form boxes across
    # passes and its jobs' requests across rounds; a table ending at 2000 mixes D
    # inside and past it in one batch, and sends sweeps across its end; a
    # zero table limit streams every prime of every D in sieve blocks
    rc, want, _ = run_cli(argv, capsys)
    assert rc == 0
    monkeypatch.setattr(arith, "_PASS_POINTS", 64)
    monkeypatch.setattr(stats, "_ROUND_POINTS", 64)
    assert run_cli(argv, capsys)[:2] == (0, want)
    monkeypatch.setattr(stats, "_TABLE_LIMIT", 2000)
    assert run_cli(argv, capsys)[:2] == (0, want)
    monkeypatch.setattr(stats, "_TABLE_LIMIT", 0)
    assert run_cli(argv, capsys)[:2] == (0, want)


def test_scan_limit_failure_keeps_to_its_d(monkeypatch, capsys):
    # a request past the prime -> class limit (lowered here from 2^31 to
    # 3000) fails the D that made it; the rest of its batch keeps its rows
    monkeypatch.setattr(arith, "_INT64_EXACT", 3000)
    rc, out, err = run_cli(["scan", "--range", "-200", "-3"], capsys)
    assert rc == 2
    *lines, tail = err.splitlines()
    failed = [int(line.split()[1][2:]) for line in lines]
    assert tail == f"# failed={len(failed)}" and 0 < len(failed) < 20
    for d, line in zip(failed, lines):
        assert re.fullmatch(
            rf"scan: D={d} failed: prime \d+ at D = {d} is not below 2\^31, "
            r"the prime -> class limit",
            line,
        )
    header, want = _golden_rows("scan_-300_-3.csv")
    rows = out.splitlines()
    assert rows[0] == header
    assert rows[1:] == [
        line for d, line in want.items() if -200 <= int(d) and int(d) not in failed
    ]


def test_scan_memory_stays_bounded(capsys):
    # tracemalloc peak 3.9 MiB before batching, 4.4 MiB now; a batch holds
    # at most stats._ROUND_POINTS (2^18) psi lattice points and a table of
    # the primes up to 2^21, and 2^20 points reached 7.9 MiB
    tracemalloc.start()
    try:
        rc = cli.main(["scan", "--range", "-2000", "-3", "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0
    assert peak < 8 * 2**20


def test_variance_memory_stays_bounded(capsys):
    # about 3 * 10^5 lattice points in the segment [10^6, 2 * 10^6], one
    # part of the table of the primes up to 2^21: enumerated in one pass,
    # the tracemalloc peak is 10.9 MiB; in passes of arith._PASS_POINTS it
    # is 6.1 MiB
    enumerate_reduced_forms = classgroup.enumerate_reduced_forms
    enumerate_reduced_forms(-23)  # numpy's first-use allocations stay outside
    tracemalloc.start()
    try:
        argv = ["variance", "--disc", "-10000019", "--t", "1e6", "--out", os.devnull]
        rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0
    assert peak < 10 * 2**20


# ---------------------------------------------------------------------------
# the 2^31 limit on |D| is checked before the O(|D|) form enumeration

@pytest.mark.parametrize("cmd", [["variance", "--t", "100"], ["least-primes"], ["heegner"]])
def test_disc_limit_fails_before_enumeration(cmd, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "enumerate_reduced_forms", lambda *a, **kw: calls.append(a))
    rc, out, err = run_cli(cmd + ["--disc", "-2147483651"], capsys)
    assert rc == 2 and out == "" and calls == []
    assert err == "error: |D| = 2147483651 is not below 2^31, the prime -> class limit\n"


def test_perfbench_wraps_names_that_exist():
    # perfbench/tracing.py skips a name no module binds, which would zero
    # its layer metrics silently
    checkout = Path(cli.__file__).resolve().parents[2]
    code = textwrap.dedent(
        """
        import tracing

        missing = []
        real = tracing._replace

        def checking(modules, attr, wrapper):
            if not any(hasattr(mod, attr) for mod in modules):
                missing.append(attr)
            real(modules, attr, wrapper)

        tracing._replace = checking
        tracing.install(tracing.Tracer())
        print(missing)
        """
    )
    path = os.pathsep.join([str(checkout / "src"), str(checkout / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
