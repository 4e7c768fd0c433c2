"""Command line interface.

Subcommands: forms, least-primes, variance, scan, dirichlet-check,
heegner, selftest.  Output goes to stdout (or --out) as CSV or JSON with
identical numeric content; per-class tables are CSV rows, summaries go
to stderr in CSV mode and into the JSON object otherwise.  Exit codes:
0 ok, 2 bad input, 3 internal identity or invariant violation, 4 oracle
mismatch.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import arith, heegner, stats
from .classgroup import ClassGroup, InvalidIdealBasis, NotFundamental, enumerate_reduced_forms
from .qform import (
    InvariantViolation,
    NotADiscriminant,
    fundamental_discriminants,
    validate_discriminant,
)
from .stats import IdentityMismatch


class UsageError(ValueError):
    pass


class OracleMismatch(RuntimeError):
    pass


# exceptions that mean bad input: exit 2
_INPUT_ERRORS = (
    NotADiscriminant,
    NotFundamental,
    InvalidIdealBasis,
    UsageError,
    arith.LimitTooLarge,
)


# ---------------------------------------------------------------------------
# scale rules: "1000", "h*log2", "h2*log2", "0.5*h*log2.1", ...

_H_FACTOR = re.compile(r"^h(\d+(?:\.\d+)?)?$")
_LOG_FACTOR = re.compile(r"^log(\d+(?:\.\d+)?)?$")


def parse_scale(rule: str) -> tuple[float, float, float]:
    """Parse a threshold rule into (coefficient, h exponent, log exponent)."""
    coeff, he, le = 1.0, 0.0, 0.0
    seen_sym = False
    for factor in rule.strip().split("*"):
        factor = factor.strip()
        m = _H_FACTOR.match(factor)
        if m:
            he += float(m.group(1) or 1.0)
            seen_sym = True
            continue
        m = _LOG_FACTOR.match(factor)
        if m:
            le += float(m.group(1) or 1.0)
            seen_sym = True
            continue
        try:
            coeff *= float(factor)
        except ValueError:
            raise UsageError(f"cannot parse scale rule factor {factor!r}") from None
    if not math.isfinite(coeff):
        raise UsageError(f"scale rule {rule!r} has a coefficient that is not finite")
    if not seen_sym and coeff <= 0:
        raise UsageError(f"scale rule {rule!r} must be positive")
    return coeff, he, le


def scale_value(coeff: float, he: float, le: float, h: int, absd: int) -> float:
    """coeff * h^he * log(absd)^le; UsageError unless it is a finite number."""
    try:
        x = coeff * h**he * math.log(absd) ** le
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        rule = f"{coeff:g}*h^{he:g}*log|D|^{le:g}"
        raise UsageError(f"threshold {rule} is not finite at h={h}, |D|={absd}")
    return x


def eval_scale(rule: str, h: int, absd: int) -> float:
    return scale_value(*parse_scale(rule), h, absd)


# ---------------------------------------------------------------------------
# config file

def load_config(path: str) -> dict[str, str]:
    conf: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line {line!r}")
                key, _, val = line.partition("=")
                conf[key.strip()] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    return conf


def _config_argv(sp: argparse.ArgumentParser, conf: dict[str, str], argv: list[str]) -> list[str]:
    """Config values as command-line tokens for the options argv does not set.

    Keys are the subcommand's long flag names; a list option (`--range LO
    HI`, the repeated `--x-rule`) takes a comma-separated value.
    """
    tokens: list[str] = []
    for key, val in conf.items():
        flag = "--" + key
        if key == "config":
            raise UsageError("a config file cannot name another config file")
        if any(a == flag or a.startswith(flag + "=") for a in argv):
            continue  # the flag beats the config value
        action = sp._option_string_actions.get(flag)  # argparse has no public lookup
        if action is None:
            raise UsageError(f"config key {key!r} is not an option of {sp.prog}")
        vals = [v.strip() for v in val.split(",") if v.strip()]
        if isinstance(action, argparse._AppendAction):
            tokens += [f"{flag}={v}" for v in vals]
        elif action.nargs:
            tokens += [flag, *vals]
        else:
            tokens.append(f"{flag}={val}")
    return tokens


# ---------------------------------------------------------------------------
# emission

def fmt_num(v) -> str:
    if v is None:
        return "none@cap"
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def emit_rows(rows: list[dict], columns: list[str], out) -> None:
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(fmt_num(row[c]) for c in columns) + "\n")


def emit(payload, rows, columns, fmt: str, out) -> None:
    """CSV: table to `out`, summary lines to stderr.  JSON: one object."""
    if fmt == "json":
        json.dump(payload, out, indent=2, default=_json_default)
        out.write("\n")
        return
    emit_rows(rows, columns, out)
    summary = payload.get("summary") if isinstance(payload, dict) else None
    if summary:
        for k, v in summary.items():
            sys.stderr.write(f"# {k}={fmt_num(v) if not isinstance(v, str) else v}\n")


def _json_default(v):
    if isinstance(v, (np.integer, np.floating, np.ndarray)):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_forms(args) -> int:
    d = _require_disc(args)
    g = enumerate_reduced_forms(d, strict=False)
    rows = [
        {"class_index": i, "a": f.a, "b": f.b, "c": f.c}
        for i, f in enumerate(g.elements)
    ]
    payload = {
        "d": d.value,
        "h": g.h,
        "fundamental": d.fundamental,
        "orders": list(g.orders()),
        "rows": rows,
        "summary": {"h": g.h, "orders": ";".join(map(str, g.orders()))},
    }
    emit(payload, rows, ["class_index", "a", "b", "c"], args.format, args.out_stream)
    return 0


def cmd_least_primes(args) -> int:
    d = _require_disc(args)
    arith.check_disc_limit(d.value)
    g = enumerate_reduced_forms(d, strict=False)
    absd = -d.value
    x_cap = eval_scale(args.x_cap, g.h, absd)
    x1 = scale_value(1.0, 1.0, 2.0 + args.eps, g.h, absd)
    x2 = scale_value(1.0, 2.0, 2.0, g.h, absd)
    sweep_cap = max(x_cap, x1, x2)
    lp, ln, capped = stats._least_sweep(g, sweep_cap, sieve_cap=args.sieve_cap)
    rows = []
    for i, f in enumerate(g.elements):
        p = lp[i] if lp[i] is not None and lp[i] < x_cap else None
        rows.append(
            {
                "class_index": i,
                "a": f.a,
                "b": f.b,
                "c": f.c,
                "heegner_im": heegner.heegner_point(g, i).im,
                "least_prime": p,
                "is_ramified_prime": bool(p is not None and d.value % p == 0),
            }
        )
    max_p, median_p = stats.least_prime_summary([r["least_prime"] for r in rows])
    summary = {
        "h": g.h,
        "x_cap": x_cap,
        "max_least_prime": max_p,
        "median_least_prime": median_p,
        "x_h_log_eps": x1,
        "r_prime_at_x_h_log_eps": stats.count_exceptional(lp, x1),
        "r_ideal_at_x_h_log_eps": stats.count_exceptional(ln, x1),
        "x_h2_log2": x2,
        "r_prime_at_x_h2_log2": stats.count_exceptional(lp, x2),
        "r_ideal_at_x_h2_log2": stats.count_exceptional(ln, x2),
        "r_prime_at_x_cap": stats.count_exceptional(lp, x_cap),
        "r_ideal_at_x_cap": stats.count_exceptional(ln, x_cap),
        "capped": capped,
    }
    payload = {"d": d.value, "rows": rows, "summary": summary}
    emit(payload, rows, list(rows[0]), args.format, args.out_stream)
    return 0


def _require_disc(args):
    if args.disc is None:
        raise UsageError("--disc is required (flag or config)")
    return validate_discriminant(args.disc)


def cmd_variance(args) -> int:
    d = _require_disc(args)
    t = args.t
    if t is None or not (2 <= t < math.inf):
        raise UsageError("--t must be given, finite and at least 2")
    w = stats.get_weight(args.weight)
    arith.check_disc_limit(d.value)
    g = enumerate_reduced_forms(d, strict=False)
    rep = stats.variance_report(g, t, w, sieve_cap=args.sieve_cap)
    log2d = math.log(-d.value) ** 2
    row = {
        "d": d.value,
        "h": g.h,
        "t": t,
        "weight": w.kind,
        "psi_total": rep.psi_total,
        "variance": rep.variance,
        "variance_spectral": rep.variance_spectral,
        "var_ratio": rep.variance / (t * log2d),
        "delta_main_term": rep.delta_main_term,
        "main_term_rel": rep.psi_total / t - 1.0,
    }
    payload = {
        "rows": [row],
        "psi_by_class": [float(x) for x in rep.psi_by_class],
        "psi_by_char_abs": [float(abs(z)) for z in rep.psi_by_char],
    }
    emit(payload, [row], list(row.keys()), args.format, args.out_stream)
    return 0


def cmd_dirichlet_check(args) -> int:
    d = _require_disc(args)
    if not d.fundamental:
        # r(n) = w_D sum_{e|n} chi_D(e) holds only for fundamental D
        raise NotFundamental(
            f"{d.value} is not a fundamental discriminant; the divisor formula needs one"
        )
    nmax = args.n_max
    if nmax < 1:
        raise UsageError("--n-max must be >= 1")
    mismatch, split_r = arith.divisor_formula_check(nmax, d)
    row = {
        "d": d.value,
        "n_max": nmax,
        "status": "ok" if mismatch is None else "mismatch",
        "first_mismatch": mismatch if mismatch is not None else "",
        "max_split_r": int(split_r.max(initial=0)),
        "w_d": arith.unit_count(d.value),
    }
    emit({"rows": [row]}, [row], list(row.keys()), args.format, args.out_stream)
    if mismatch is not None:
        raise OracleMismatch(
            f"representation count and divisor formula differ first at n={mismatch}"
        )
    return 0


def cmd_heegner(args) -> int:
    d = _require_disc(args)
    psi_value = args.psi_value
    if not 0 < psi_value < math.inf:
        raise UsageError("--psi-value must be positive and finite")
    absd = -d.value
    if args.l_terms is not None and args.l_terms < absd:
        raise UsageError(f"--l-terms must be at least |D| = {absd}")
    arith.check_disc_limit(d.value)
    g = enumerate_reduced_forms(d, strict=False)
    x_cap = eval_scale(args.x_cap, g.h, absd)
    lp = stats.least_primes(g, x_cap, sieve_cap=args.sieve_cap)
    rep = heegner.repulsion_report(g, lp)
    est = arith.l_one_chi(d, args.l_terms)
    pairing, const = heegner.cramer_class_number_pairing(g, psi_value)
    rows = []
    for r in rep.rows:
        f = g.elements[r.class_index]
        rows.append(
            {
                "class_index": r.class_index,
                "a": f.a,
                "b": f.b,
                "c": f.c,
                "heegner_re": r.heegner_re,
                "heegner_im": r.heegner_im,
                "least_prime": r.least_prime,
                "bound_ok": r.bound_ok,
            }
        )
    summary = {
        "h": g.h,
        "psi_value": psi_value,
        "coefficient_bound_fraction": heegner.coefficient_bound_fraction(g, psi_value),
        "cramer_prediction": heegner.cramer_prediction(g, psi_value, est.value),
        "cramer_h_log_pairing": pairing,
        "pairing_constant": const,
        "l_one": est.value,
        "l_one_tail_bound": est.tail_bound,
        "max_least_prime": rep.max_least_prime,
        "median_least_prime": rep.median_least_prime,
        "argmax_a_class": rep.argmax_a_class,
    }
    payload = {"d": d.value, "rows": rows, "summary": summary}
    emit(payload, rows, list(rows[0]), args.format, args.out_stream)
    return 0


def _scan_columns(x_rules: list[str]) -> list[str]:
    cols = ["d", "h"]
    for i in range(1, len(x_rules) + 1):
        cols += [f"x{i}", f"r{i}_ideal", f"r{i}_prime"]
    cols += ["max_p", "median_p", "t", "var", "var_ratio"]
    return cols


class _ScanD(NamedTuple):
    """One D of a scan that passed its per-D checks."""

    d: int
    g: ClassGroup
    xs: list[float]
    t: float

    @property
    def sweep_cap(self) -> float:
        return max(self.xs) if self.xs else 2.0


def _scan_prepare(dv: int, x_rules, t_rule, sieve_cap, h_cap) -> _ScanD:
    """Class group, thresholds and T of one D, and every check that can
    fail it before it joins a batch: the 2^31 limit on |D| (before the
    O(|D|) form enumeration), --h-cap, the thresholds, and the sieve cap
    at sqrt(2T) and 2T."""
    d = validate_discriminant(dv)
    arith.check_disc_limit(dv)
    g = enumerate_reduced_forms(d)
    if g.h > h_cap:
        raise UsageError(f"h = {g.h} exceeds cap {h_cap}")
    absd = -dv
    xs = [eval_scale(r, g.h, absd) for r in x_rules]
    t = max(2.0, eval_scale(t_rule, g.h, absd))
    sq, _, hi = stats.psi_limits(t)
    for limit in (sq, hi):
        arith.check_sieve_limit(limit, sieve_cap)
    return _ScanD(dv, g, xs, t)


def _scan_row(s: _ScanD, lp, ln, rep) -> dict:
    row: dict = {"d": s.d, "h": s.g.h}
    for i, x in enumerate(s.xs, 1):
        row[f"x{i}"] = x
        row[f"r{i}_ideal"] = stats.count_exceptional(ln, x)
        row[f"r{i}_prime"] = stats.count_exceptional(lp, x)
    row["max_p"], row["median_p"] = stats.least_prime_summary(lp)
    row["t"] = s.t
    row["var"] = rep.variance
    row["var_ratio"] = rep.variance / (s.t * math.log(-s.d) ** 2)
    return row


def _scan_results(discs, x_rules, t_rule, w, sieve_cap: int, h_cap: int):
    """Yield (D, row or the exception that failed it) for each D, in order.

    Consecutive D form batches of at most one round of run_jobs
    (stats._ROUND_POINTS lattice points of the form box) for their psi
    norms, on one prime source shared by the whole scan; a D that fails
    its checks keeps its place in the batch.
    """
    source = stats.PrimeSource(sieve_cap)
    batch: list = []
    points = 0
    for dv in discs:
        try:
            s = _scan_prepare(dv, x_rules, t_rule, sieve_cap, h_cap)
        except (InvariantViolation, *_INPUT_ERRORS) as exc:
            batch.append((dv, exc))
            continue
        sq, seg_start, hi = stats.psi_limits(s.t)
        n = arith.box_points(s.g, seg_start, hi) + arith.box_points(s.g, 2, sq)
        if points and points + n > stats._ROUND_POINTS:
            yield from _scan_batch(batch, source, w)
            batch, points = [], 0
        batch.append((dv, s))
        points += n
    yield from _scan_batch(batch, source, w)


def _scan_batch(batch: list, source: stats.PrimeSource, w):
    """Yield (D, row or the exception that failed it) for one batch, in order.

    batch holds (D, _ScanD or the exception its checks raised).  The psi
    and least-prime sweep jobs of every D that passed run in one
    stats.run_jobs call; a job that fails there fails its own D only.
    """
    ok = [s for _, s in batch if isinstance(s, _ScanD)]
    jobs = []
    for s in ok:
        jobs.append((s.g, stats.psi_job(s.g, s.t, w, source)))
        jobs.append((s.g, stats.sweep_job(s.g, s.sweep_cap, source)))
    done = iter(stats.run_jobs(jobs))
    for dv, s in batch:
        if isinstance(s, _ScanD):
            psa, sweep = next(done), next(done)
            try:
                for res in (psa, sweep):
                    if isinstance(res, Exception):
                        raise res
                s = _scan_row(s, *sweep[:2], stats.variance_report(s.g, s.t, w, psa=psa))
            except (InvariantViolation, *_INPUT_ERRORS) as exc:
                s = exc
        yield dv, s


def cmd_scan(args) -> int:
    if args.range is None:
        raise UsageError("--range LO HI is required")
    lo, hi = sorted(args.range)
    x_rules = args.x_rule or ["h*log2.1", "h2*log2"]
    w = stats.get_weight(args.weight)
    for r in x_rules + [args.t_rule]:
        parse_scale(r)  # validate up front -> usage error, not mid-scan
    discs = fundamental_discriminants(lo, hi)
    rows = []
    failures: list[Exception] = []
    for dv, res in _scan_results(discs, x_rules, args.t_rule, w, args.sieve_cap, args.h_cap):
        if isinstance(res, dict):
            rows.append(res)
        else:
            failures.append(res)
            print(f"scan: D={dv} failed: {res}", file=sys.stderr)
    cols = _scan_columns(x_rules)
    if args.format == "json":
        json.dump(rows, args.out_stream, indent=2, default=_json_default)
        args.out_stream.write("\n")
    else:
        emit_rows(rows, cols, args.out_stream)
        print(f"# failed={len(failures)}", file=sys.stderr)
    if any(isinstance(exc, InvariantViolation) for exc in failures):
        return 3
    return 2 if failures else 0


def cmd_selftest(args) -> int:
    from . import acceptance

    results = acceptance.run(numbers=args.only)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(sp, *, sieve_cap: bool = False) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out")
    sp.add_argument("--config")
    if sieve_cap:
        sp.add_argument("--sieve-cap", type=int, default=arith.SIEVE_CAP_DEFAULT)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="classprime",
        description="class groups of imaginary quadratic discriminants and "
        "the distribution of primes among ideal classes",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        # no abbreviations: a config value is skipped only when its exact flag is given
        sp = sub.add_parser(name, help=summary, allow_abbrev=False)
        sp.set_defaults(func=func, parser=sp)
        return sp

    sp = command("forms", cmd_forms, "reduced forms, h, cyclic orders for one D")
    sp.add_argument("--disc", type=int)
    _add_common(sp)

    sp = command("least-primes", cmd_least_primes, "per-class least primes and R thresholds")
    sp.add_argument("--disc", type=int)
    sp.add_argument("--x-cap", default="100*h2*log2", help="absolute value or rule")
    sp.add_argument("--eps", type=float, default=0.1)
    _add_common(sp, sieve_cap=True)

    sp = command("variance", cmd_variance, "psi sums and cross-class variance at scale T")
    sp.add_argument("--disc", type=int)
    sp.add_argument("--t", type=float)
    sp.add_argument("--weight", choices=("bump", "indicator"), default="bump")
    _add_common(sp, sieve_cap=True)

    sp = command("scan", cmd_scan, "tabulate h, R, least primes, variance over a range")
    sp.add_argument("--range", type=int, nargs=2, metavar=("LO", "HI"))
    # default ["h*log2.1", "h2*log2"] is set in cmd_scan: append would extend it
    sp.add_argument("--x-rule", action="append")
    sp.add_argument("--t-rule", default="h2*log2")
    sp.add_argument("--weight", choices=("bump", "indicator"), default="bump")
    sp.add_argument("--h-cap", type=int, default=10**6)
    _add_common(sp, sieve_cap=True)

    sp = command(
        "dirichlet-check", cmd_dirichlet_check, "representation counts vs divisor formula"
    )
    sp.add_argument("--disc", type=int)
    sp.add_argument("--n-max", type=int, default=5000)
    _add_common(sp)

    sp = command("heegner", cmd_heegner, "CM points, coefficient bounds, repulsion table")
    sp.add_argument("--disc", type=int)
    sp.add_argument("--psi-value", type=float, default=1.0)
    sp.add_argument("--x-cap", default="100*h2*log2")
    sp.add_argument("--l-terms", type=int, help="default max(10^6, 100|D|)")
    _add_common(sp, sieve_cap=True)

    sp = command("selftest", cmd_selftest, "run the acceptance checks")
    sp.add_argument("--only", action="append", type=int, choices=range(1, 11), metavar="N")
    _add_common(sp)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # one parse of flags and config together: same types, choices and nargs
            argv += _config_argv(args.parser, load_config(args.config), argv)
            args = parser.parse_args(argv)
        if args.out:
            try:
                fh = open(args.out, "w", encoding="utf-8", newline="")
            except OSError as exc:
                raise UsageError(f"cannot open --out {args.out}: {exc}") from None
            with fh:
                args.out_stream = fh
                return args.func(args)
        args.out_stream = sys.stdout
        rc = args.func(args)
        sys.stdout.flush()  # a reader gone early raises here, not at exit
        return rc
    except BrokenPipeError:
        # the reader of stdout exited early, as head does: point stdout at
        # devnull so that the interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IdentityMismatch as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
