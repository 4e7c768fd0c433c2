import contextlib
import csv
import io
import json
import math
import multiprocessing.pool
import os
import pickle
import re
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
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


def test_emit_rows_formats_columns_as_fmt_num():
    # each column formatted at once prints what fmt_num printed cell by
    # cell over the same rows as dicts of Python scalars
    columns = {
        "i": np.array([0, -7, 2**40, 3], dtype=np.int64),
        "f": np.array([0.0, 1e-13, -123456789012345.0, 2.0 / 3]),
        "p": [5, None, 2.5, True],
        "ok": np.array([True, False, True, False]),
    }
    out = io.StringIO()
    cli.emit_rows(cli.Table(columns), out)
    rows = cli.Table(columns).records()
    old = "i,f,p,ok\n" + "".join(
        ",".join(fmt_num(row[c]) for c in columns) + "\n" for row in rows
    )
    assert out.getvalue() == old
    assert out.getvalue().splitlines()[1:] == [
        "0,0,5,1", "-7,1e-13,none@cap,0", "1099511627776,-1.23456789012e+14,2.5,1",
        "3,0.666666666667,1,0",
    ]
    assert [type(v) for v in rows[0].values()] == [int, float, int, bool]


def test_emit_rows_of_no_rows_is_the_header():
    out = io.StringIO()
    table = cli.Table.of_rows([], ["d", "h"])
    cli.emit_rows(table, out)
    assert (len(table), out.getvalue(), table.records()) == (0, "d,h\n", [])


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


def test_dirichlet_check_rejects_n_max_past_its_bound(monkeypatch, capsys):
    # 10^10 would need 74.5 GiB per int64 array; it is refused before the check
    # allocates anything, and the bound itself is accepted
    calls = []

    def check(nmax, d):
        calls.append(nmax)
        raise RuntimeError("stop")

    monkeypatch.setattr(arith, "divisor_formula_check", check)
    rc, out, err = run_cli(["dirichlet-check", "--disc", "-23", "--n-max", "10000000000"], capsys)
    assert (rc, out, calls) == (2, "", [])
    assert "--n-max must be at most 10000000" in err
    with pytest.raises(RuntimeError, match="stop"):
        cli.main(["dirichlet-check", "--disc", "-23", "--n-max", "10000000"])
    assert calls == [10**7]


def test_heegner_rejects_l_terms_past_its_bound(monkeypatch, capsys):
    # l_one_chi takes time linear in --l-terms: past 10^10 it is refused
    # at once, and the bound itself is accepted
    t0 = time.perf_counter()
    rc, out, err = run_cli(["heegner", "--disc", "-23", "--l-terms", "99999999999999"], capsys)
    assert time.perf_counter() - t0 < 1
    assert (rc, out, err) == (2, "", "error: --l-terms must be at most 10000000000\n")
    calls = []

    def l_one(d, terms):
        calls.append(terms)
        raise RuntimeError("stop")

    monkeypatch.setattr(arith, "l_one_chi", l_one)
    with pytest.raises(RuntimeError, match="stop"):
        cli.main(["heegner", "--disc", "-23", "--l-terms", "10000000000"])
    assert calls == [10**10]


def test_heegner_default_l_terms_stops_at_its_bound(monkeypatch):
    # max(10^6, 100|D|) below |D| = 10^8, the bound 10^10 past it
    calls = []

    def l_one(d, terms):
        calls.append(terms)
        raise RuntimeError("stop")

    monkeypatch.setattr(arith, "l_one_chi", l_one)
    for d in (-23, -100000003):
        with pytest.raises(RuntimeError, match="stop"):
            cli.main(["heegner", "--disc", str(d), "--x-cap", "1000"])
    assert calls == [10**6, 10**10]


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
    # scan skips them; direct commands accept them
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


def test_cli_import_leaves_out_concurrent_futures_and_logging():
    # arith's threads are plain threading: concurrent.futures imports
    # logging, which adds about 6.7 ms to every start-up
    code = "import sys, classprime.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    res = _python("-c", code)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


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
    # (5, 9, 5) has discriminant -19 but is not reduced: its CM point has
    # re = -0.9.  -340340 less its last form has h = 287 and -3299 less
    # its last h = 26: at either h some class times the first walk
    # generator is the missing form
    code = textwrap.dedent(
        """
        from classprime import classgroup
        from classprime.classgroup import ClassGroup
        from classprime.heegner import heegner_point
        from classprime.qform import InvariantViolation, validate_discriminant

        assert False, "unreachable under -O"
        g = ClassGroup(validate_discriminant(-19), [[5], [9], [5]])
        try:
            heegner_point(g, 0)
        except InvariantViolation as exc:
            print("raised:", exc)
        for d in (-340340, -3299):
            full = classgroup.enumerate_reduced_forms(d)
            g = ClassGroup(full.disc, full.abc[:, :-1])
            try:
                classgroup.group_structure(g)
            except InvariantViolation as exc:
                print("raised:", exc)
        """
    )
    res = _python("-O", "-c", code)
    assert res.returncode == 0, res.stderr
    first, *walks = res.stdout.splitlines()
    assert first.startswith("raised:")
    assert len(walks) == 2
    for line, d in zip(walks, (-340340, -3299)):
        assert line.startswith("raised: composite (") and line.endswith(f"is not a class of {d}")


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


def _record_walks(monkeypatch) -> list[int]:
    """The h of each group walked from here on, in this process."""
    walked = []
    real = classgroup._presentations
    monkeypatch.setattr(
        classgroup, "_presentations", lambda groups: walked.extend(g.h for g in groups) or real(groups)
    )
    return walked


def test_scan_counts_failures_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_chunk_map", map)  # the walks run in this process
    structured = _record_walks(monkeypatch)
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


def test_scan_walks_no_group_over_the_h_cap(monkeypatch, capsys):
    # the cap is checked between a batch's enumeration and its walk, so a
    # D with h > 2 is never walked, and it fails with the cap's message
    monkeypatch.setattr(cli, "_chunk_map", map)
    walked = _record_walks(monkeypatch)
    rc, out, err = run_cli(["scan", "--range", "-100", "-3", "--h-cap", "2"], capsys)
    assert rc == 2
    assert walked and set(walked) == {2}
    *lines, tail = err.splitlines()
    assert len(lines) > 10 and tail == f"# failed={len(lines)}"
    assert all(re.fullmatch(r"scan: D=-\d+ failed: h = \d+ exceeds cap 2", line) for line in lines)
    assert lines[0] == "scan: D=-23 failed: h = 3 exceeds cap 2"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) + len(lines) == len(list(qform.fundamental_discriminants(-100, -3)))


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
    # psi_by_class composes no forms; the walk composes by array passes,
    # one per walk generator of -3299's group (3 x 9), and calls no
    # compose at all
    calls = {"inside": 0, "outside": 0, "compose": 0}
    depth = [0]
    real_maps, real_structure = classgroup._compose_maps, classgroup.group_structure
    real_compose = qform.compose

    def counting(pairs):
        calls["inside" if depth[0] else "outside"] += len(pairs)
        return real_maps(pairs)

    def compose(f, k):
        calls["compose"] += 1
        return real_compose(f, k)

    def structure(g):
        depth[0] += 1
        try:
            return real_structure(g)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(qform, "compose", compose)
    monkeypatch.setattr(classgroup, "_compose_maps", counting)
    monkeypatch.setattr(classgroup, "group_structure", structure)
    rc, _, _ = run_cli(["variance", "--disc", "-3299", "--t", "1e5"], capsys)
    assert rc == 0
    assert 0 < calls["inside"] <= 2
    assert calls["outside"] == calls["compose"] == 0


def test_scan_x_rules_shape_columns(capsys):
    rc, out, _ = run_cli(
        ["scan", "--range", "-30", "-3", "--x-rule", "h*log2", "--x-rule", "50"],
        capsys,
    )
    assert rc == 0
    header = out.splitlines()[0].split(",")
    assert header[:8] == ["d", "h", "x1", "r1_ideal", "r1_prime", "x2", "r2_ideal", "r2_prime"]


# ---------------------------------------------------------------------------
# scan's jobs: failures stay with their D, rows match the golden tables

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


def _broken_at_1003(real):
    def broken(g, T, w, **kw):
        if g.disc.value == -1003:
            raise stats.IdentityMismatch("forced for the exit-code contract")
        return real(g, T, w, **kw)

    return broken


def test_scan_identity_mismatch_inside_a_batch(monkeypatch, capsys):
    monkeypatch.setattr(stats, "variance_report", _broken_at_1003(stats.variance_report))
    rc, out, err = run_cli(["scan", "--range", "-2000", "-3"], capsys)
    assert rc == 3
    assert err.splitlines() == [
        "scan: D=-1003 failed: forced for the exit-code contract",
        "# failed=1",
    ]
    want = (GOLDEN / "scan_-2000_-3.csv").read_text().splitlines()
    assert out.splitlines() == [line for line in want if not line.startswith("-1003,")]


def test_scan_classifies_in_few_rounds(monkeypatch, capsys):
    # one arith.interval_classes call per round of stats.run_jobs: one run
    # per chunk, with a job per D, takes 36 calls in the 2 dealt chunks of
    # two CPUs (114 in rounds of 2^16 points).  In process, so that the
    # calls are counted here
    monkeypatch.setattr(cli, "_chunk_map", map)
    monkeypatch.setattr(arith, "usable_cpus", lambda: 2)
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
    # tiny passes and rounds split a D's form boxes across passes and the
    # jobs' requests across rounds; a table ending at 2000 mixes D inside
    # and past it in one round, and sends sweeps across its end; a zero
    # table limit streams every prime of every D in sieve blocks
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
    # 3000) fails the D that made it; the other D keep their rows
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


def test_scan_with_a_constant_t_sieves_its_segment_once_per_chunk(monkeypatch, capsys):
    # under --t-rule 3e6 every D asks for the segment [3e6, 6e6] in the
    # same two blocks past the table of the primes up to 2^21: each
    # chunk's PrimeSource sieves each block once, not again for every D
    monkeypatch.setattr(cli, "_chunk_map", map)
    discs = list(qform.fundamental_discriminants(-50000, -49900))
    chunks = len(cli._scan_chunks(discs, arith.usable_cpus()))
    past = []
    real = arith.iter_prime_blocks

    def sieve(lo, hi, **kw):
        if lo > stats._TABLE_LIMIT:
            past.append((lo, hi))
        return real(lo, hi, **kw)

    monkeypatch.setattr(arith, "iter_prime_blocks", sieve)
    rc, out, _ = run_cli(["scan", "--range", "-50000", "-49900", "--t-rule", "3e6"], capsys)
    assert rc == 0 and len(out.splitlines()) == len(discs) + 1
    assert len(discs) > 20 and len(past) <= 2 * chunks


def test_psi_segment_past_the_prime_limit_is_named_up_front(capsys):
    # the segment [3e9, 6e9] starts past 2^31: its first prime is named
    # before any prime up to sqrt(2T) is classified
    argv = ["variance", "--disc", "-23", "--t", "3e9", "--sieve-cap", "100000000000"]
    rc, _, err = run_cli(argv, capsys)
    assert rc == 2
    assert err == "error: prime 3000000019 at D = -23 is not below 2^31, the prime -> class limit\n"


def test_scan_segment_past_the_prime_limit_fails_each_d_quickly(capsys):
    # T = 1e18: the segment's first prime is named before any prime up to
    # sqrt(2T), about 1.4e9, is classified
    start = time.perf_counter()
    argv = ["scan", "--range", "-100", "-60", "--t-rule=1e18", "--sieve-cap=100000000000000000000"]
    rc, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 10
    assert rc == 2 and out.count("\n") == 1
    discs = list(qform.fundamental_discriminants(-100, -60))
    assert err.splitlines() == [
        f"scan: D={d} failed: prime 1000000000000000003 at D = {d} is not below 2^31, "
        "the prime -> class limit"
        for d in discs
    ] + [f"# failed={len(discs)}"]


def test_scan_parses_each_rule_once(monkeypatch, capsys):
    # the two default x rules and the t rule, once each, not once per D
    monkeypatch.setattr(cli, "_chunk_map", map)
    rules = []
    real = cli.parse_scale
    monkeypatch.setattr(cli, "parse_scale", lambda rule: rules.append(rule) or real(rule))
    assert run_cli(["scan", "--range", "-300", "-3"], capsys)[0] == 0
    assert rules == ["h*log2.1", "h2*log2", "h2*log2"]


def test_scan_memory_stays_bounded(monkeypatch, capsys):
    # tracemalloc peak 6.6 MiB (8.8 MiB in rounds of 2^20 points): a run
    # starts a D's job only while its first request fits in a round of
    # stats._ROUND_POINTS (2^18) lattice points, so the D in flight hold at
    # most 2^18 box forms, and the prime source a table of the primes up
    # to 2^21.  The bound holds per worker: in process, the chunks run one
    # after another
    monkeypatch.setattr(cli, "_chunk_map", map)
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
# scan's process pool: the same bytes as in process, and no worker left

pooled = pytest.mark.skipif(
    arith.usable_cpus() < 2, reason="a pool needs two usable CPUs; tests start no more"
)


def test_scan_chunks_deal_the_d_one_chunk_per_cpu():
    # chunk i is discs[i::n], so the dealt chunks' sums of |D| differ by
    # less than one |D|, and n <= sum |D| / _CHUNK_ABSD: each chunk holds
    # _CHUNK_ABSD less at most one D (-926..-3 on 4 CPUs: 32677 of 32768)
    for lo, hi in [(-2000, -3), (-926, -3), (-200000, -199950), (-100, -3), (-4, -3), (-2, -1)]:
        discs = list(qform.fundamental_discriminants(lo, hi))
        for cpus in (1, 2, 3, 4, 8):
            chunks = cli._scan_chunks(discs, cpus)
            n = len(chunks)
            assert 1 <= n <= cpus
            assert chunks == [discs[i::n] for i in range(n)]
            assert sorted(d for c in chunks for d in c) == sorted(discs)
            if cpus == 1:
                assert n == 1
            if n > 1:
                sums = [-sum(c) for c in chunks]
                assert n * cli._CHUNK_ABSD <= sum(sums)
                assert max(sums) - min(sums) < -min(discs)
                assert min(sums) > cli._CHUNK_ABSD + min(discs)


def _worker_state(_chunk):
    return os.getpid(), signal.getsignal(signal.SIGINT) is signal.SIG_IGN


@pooled
def test_chunk_map_runs_in_workers_that_ignore_sigint():
    state = list(cli._chunk_map(_worker_state, range(4)))
    assert {pid for pid, _ in state}.isdisjoint([os.getpid()])
    assert len({pid for pid, _ in state}) <= arith.usable_cpus()
    assert all(ignored for _, ignored in state)
    assert multiprocessing.active_children() == []


@pooled
@pytest.mark.parametrize("argv,break_at_1003,want_rc", [
    (["scan", "--range", "-2000", "-3"], False, 0),
    (["scan", "--range", "-300", "-3", "--x-rule", "5000", "--t-rule", "50"], False, 0),
    (["scan", "--range", "-100", "-3", "--sieve-cap", "1000"], False, 2),
    (["scan", "--range", "-2000", "-3", "--format", "json"], False, 0),
    (["scan", "--range", "-2000", "-3"], True, 3),
])
def test_pooled_scan_matches_in_process(argv, break_at_1003, want_rc, monkeypatch, capsys):
    # per-D exceptions cross the process boundary with their type (the
    # exit code) and message (stderr).  Chunks of any size, so that the
    # short ranges are pooled too
    if break_at_1003:
        monkeypatch.setattr(stats, "variance_report", _broken_at_1003(stats.variance_report))
    monkeypatch.setattr(cli, "_CHUNK_ABSD", 1)
    discs = list(qform.fundamental_discriminants(int(argv[2]), int(argv[3])))
    assert len(cli._scan_chunks(discs, arith.usable_cpus())) > 1
    pooled_run = run_cli(argv, capsys)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(cli, "_chunk_map", map)
    assert pooled_run == run_cli(argv, capsys)
    assert pooled_run[0] == want_rc


@pooled
@pytest.mark.parametrize("crash", [ZeroDivisionError, KeyboardInterrupt])
def test_pooled_scan_failure_ends_every_worker(crash, monkeypatch):
    # an internal error in a worker propagates to the caller.  Ctrl-C
    # reaches the parent alone, here while it waits for chunks that would
    # take a minute: their workers are ended, not waited for
    if crash is ZeroDivisionError:
        def broken(g, T, w, **kw):
            raise ZeroDivisionError("internal bug")
    else:
        def broken(g, T, w, **kw):
            time.sleep(60)

        def interrupted(self, timeout=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(multiprocessing.pool.MapResult, "get", interrupted)
    monkeypatch.setattr(stats, "variance_report", broken)
    t0 = time.monotonic()
    with pytest.raises(crash):
        cli.main(["scan", "--range", "-2000", "-3", "--out", os.devnull])
    assert multiprocessing.active_children() == []
    assert time.monotonic() - t0 < 30


@pooled
def test_pooled_scan_to_a_closed_pipe_leaves_no_worker(tmp_path):
    # the JSON of 611 rows outgrows the pipe, so the reader leaves while
    # the scan still writes; the scan's own process then lists its children
    left = tmp_path / "children"
    code = textwrap.dedent(
        f"""
        import multiprocessing, sys
        from classprime import cli

        rc = cli.main(["scan", "--range", "-2000", "-3", "--format", "json"])
        with open({str(left)!r}, "w") as fh:
            fh.write(repr(multiprocessing.active_children()))
        sys.exit(rc)
        """
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_checkout_env(),
    )
    lines = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert lines == ["[\n", "  {\n", '    "d": -3,\n']
    assert err == ""
    assert left.read_text() == "[]"


def test_one_chunk_scan_starts_no_worker(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("a one-chunk scan forked")

    monkeypatch.setattr(os, "fork", no_fork)
    rc, out, _ = run_cli(["scan", "--range", "-4", "-3"], capsys)
    assert rc == 0 and out.splitlines()[0].startswith("d,h,")


@pytest.mark.parametrize("exc_type", [
    cli.UsageError,
    arith.LimitTooLarge,
    classgroup.InvalidIdealBasis,
    qform.InvariantViolation,
    stats.IdentityMismatch,
])
def test_scan_failures_survive_pickle(exc_type):
    # a D that fails in a worker comes back to the parent pickled
    exc = pickle.loads(pickle.dumps(exc_type("sieve limit 1780 exceeds cap 1000")))
    assert type(exc) is exc_type
    assert str(exc) == "sieve limit 1780 exceeds cap 1000"


# ---------------------------------------------------------------------------
# the 2^31 limit on |D| is checked before the O(|D|) form enumeration

@pytest.mark.parametrize("cmd", [["variance", "--t", "100"], ["least-primes"], ["heegner"]])
def test_disc_limit_fails_before_enumeration(cmd, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "enumerate_reduced_forms", lambda *a, **kw: calls.append(a))
    rc, out, err = run_cli(cmd + ["--disc", "-2147483651"], capsys)
    assert rc == 2 and out == "" and calls == []
    assert err == "error: |D| = 2147483651 is not below 2^31, the prime -> class limit\n"


@pytest.mark.parametrize("argv", [
    ["forms", "--disc", "-99999999999999999999"],
    ["forms", "--disc", "-1000000000003"],
    ["least-primes", "--disc", "-100000000000000000039"],
    ["dirichlet-check", "--disc", "-100000000000000000039", "--n-max", "10"],
    ["scan", "--range", "-99999999999999999999", "-99999999999999999940"],
])
def test_disc_limit_comes_before_factorizing(argv, capsys):
    # validate_discriminant factorizes |D| by trial division, and forms
    # enumerates about |D|/12 pairs: the bound on |D| (on scan's LO) is
    # checked first
    rc, out, err = run_cli(argv, capsys)
    absd = -int(argv[2])
    assert rc == 2 and out == ""
    assert err == f"error: |D| = {absd} is not below 2^31, the prime -> class limit\n"


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


def test_perfbench_tracing_counts_the_rows_written(tmp_path):
    # perfbench/tracing.py installs its wrappers by name and counts the
    # rows of cli.emit_rows by len() of its first argument
    checkout = Path(cli.__file__).resolve().parents[2]
    code = textwrap.dedent(
        """
        import sys
        import tracing
        from classprime import cli

        tracer = tracing.Tracer()
        tracing.install(tracer)
        for i, cmd in enumerate(["forms", "least-primes", "heegner"]):
            before = tracer.counts["rows"]
            rc = cli.main([cmd, "--disc", "-3299", "--out", sys.argv[1] + f"/{i}.csv"])
            print(rc, tracer.counts["rows"] - before)
        """
    )
    path = os.pathsep.join([str(checkout / "src"), str(checkout / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    lines = [len((tmp_path / f"{i}.csv").read_text().splitlines()) - 1 for i in range(3)]
    assert lines == [27] * 3  # h(-3299) = 27
    assert res.stdout.split("\n")[:3] == [f"0 {n}" for n in lines]


# ---------------------------------------------------------------------------
# every argv ends in a documented exit code

# edge values tried for every flag, besides its ordinary values
_EDGES = ["0", "-1", "nan", "inf", "1e300", str(2**63 + 1), str(-(2**63) - 1)]
# fundamental, non-fundamental, D = 2 or 3 mod 4, not negative, and |D|
# at and past 2^31; ordinary |D| stay below 10^5
_DISCS = ["-3", "-4", "-23", "-3299", "-12", "-108", "-2", "-5", str(-(2**31)), str(-(2**31) - 3)]
_CAPS = ["1000", "1000000000"]
# "junk" and "box" are refused: no scale rule and no weight
_RULES = ["1000", "h*log2", "h2*log2", "junk"]
_WEIGHTS = ["bump", "indicator", "box"]
_FLAGS = {
    "forms": {},
    "least-primes": {"--x-cap": _RULES, "--eps": ["0.1", "0.5"], "--sieve-cap": _CAPS},
    "variance": {"--t": ["2", "100", "10000"], "--weight": _WEIGHTS, "--sieve-cap": _CAPS},
    "heegner": {
        "--psi-value": ["0.5", "1"],
        "--x-cap": _RULES,
        "--l-terms": ["100000", "1000000"],
        "--sieve-cap": _CAPS,
    },
    "dirichlet-check": {"--n-max": ["1", "100", "5000"]},
    "scan": {
        "--x-rule": _RULES,
        "--t-rule": _RULES,
        "--weight": _WEIGHTS,
        "--h-cap": ["1", "10", "1000000"],
        "--sieve-cap": _CAPS,
    },
}


@st.composite
def _argv(draw, command):
    argv = [command]
    if command == "scan":
        # at most about 60 wide; a LO at or past -2^31 is refused at once
        lo = draw(st.one_of(st.integers(-5000, 60), st.sampled_from([-(2**31), -(2**63) - 1])))
        ends = [str(lo), str(lo + draw(st.integers(0, 60)))]
        if draw(st.booleans()):
            ends = [str(draw(st.integers(-60, 60))), draw(st.sampled_from(_EDGES))]
        argv += ["--range", *draw(st.permutations(ends))]
    elif draw(st.integers(0, 9)):
        discs = st.integers(-(10**5), -3).filter(lambda d: d % 4 < 2).map(str)
        argv.append("--disc=" + draw(_or_edge(st.one_of(discs, st.sampled_from(_DISCS)))))
    flags = {**_FLAGS[command], "--format": ["csv", "json"]}
    for flag, values in flags.items():
        for _ in range(draw(st.integers(0, 2 if flag == "--x-rule" else 1))):
            argv.append(f"{flag}={draw(_or_edge(st.sampled_from(values)))}")
    return argv


def _or_edge(values):
    """An ordinary value three times in four, else an edge value."""
    return st.sampled_from([values] * 3 + [st.sampled_from(_EDGES)]).flatmap(lambda v: v)


@pytest.mark.parametrize("command", list(_FLAGS))
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit(command, data):
    argv = data.draw(_argv(command), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        mp.setattr(cli, "_chunk_map", map)  # scan in process: no worker processes
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            rc = exc.code
    assert rc in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
