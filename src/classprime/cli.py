"""Command line interface.

Subcommands: forms, least-primes, variance, scan, dirichlet-check,
heegner, selftest.  Output goes to stdout (or --out) as CSV or JSON with
identical numeric content; per-class tables are CSV rows, summaries go
to stderr in CSV mode and into the JSON object otherwise.  Exit codes:
0 ok, 2 bad input or a resource limit (a worker process lost included),
3 internal identity or invariant violation, 4 oracle mismatch.
"""
from __future__ import annotations

import argparse
import functools
import heapq
import json
import math
import os
import re
import select
import sys
from typing import Iterator, Optional, Sequence

import numpy as np

from . import arith, classgroup, heegner, stats
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


# exceptions that mean bad input or a resource limit: exit 2
_INPUT_ERRORS = (
    NotADiscriminant,
    NotFundamental,
    InvalidIdealBasis,
    UsageError,
    arith.LimitTooLarge,
    arith.WorkerLost,
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


# fmt_num's rules by numpy dtype kind, for a whole column of Python
# scalars from tolist(): str(np.True_) would be "True", not "1"
_KIND_FORMATS = {"b": "01".__getitem__, "i": str, "u": str, "f": "{:.12g}".format}


class Table:
    """A table as named columns of one length, in header order.  A column
    is a numpy array of ints, floats or bools, or a list of cells of any
    type fmt_num takes (None for a missing value, ints and floats mixed)."""

    def __init__(self, columns: dict):
        self.columns = columns

    @classmethod
    def of_rows(cls, rows: list[dict], names: list[str]) -> Table:
        return cls({c: [r[c] for r in rows] for c in names})

    def __len__(self) -> int:
        """The number of rows."""
        return len(next(iter(self.columns.values())))

    def records(self) -> list[dict]:
        """The rows as dicts of Python scalars, the form JSON output takes."""
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns.values()]
        return [dict(zip(self.columns, row)) for row in zip(*cells)]


def _fmt_column(col) -> list[str]:
    """fmt_num of every cell of a column: by dtype for an array, cell by
    cell for a list."""
    if isinstance(col, np.ndarray):
        return list(map(_KIND_FORMATS[col.dtype.kind], col.tolist()))
    # a least-prime column is mostly ints: format those without a call
    return [str(v) if type(v) is int else fmt_num(v) for v in col]


# Characters per write of a table.  Unbuffered, stdout (python -u,
# PYTHONUNBUFFERED) passes each write straight to write(2), and a pipe
# write longer than PIPE_BUF bytes can end part-way, with no error, when
# the reader leaves; one of at most PIPE_BUF ASCII bytes is written whole
# or fails with EPIPE, which main turns into exit 141.
_PIECE = getattr(select, "PIPE_BUF", 512)


def emit_rows(table: Table, out) -> None:
    """The CSV header, then the rows, formatted one column at a time."""
    cols = [_fmt_column(c) for c in table.columns.values()]
    text = "\n".join([",".join(table.columns), *map(",".join, zip(*cols))]) + "\n"
    for i in range(0, len(text), _PIECE):
        out.write(text[i : i + _PIECE])


def emit(payload, table: Table, fmt: str, out) -> None:
    """CSV: table to `out`, summary lines to stderr.  JSON: payload as one
    value, with each Table in it written as its records."""
    if fmt == "json":
        json.dump(payload, out, indent=2, default=_json_default)
        out.write("\n")
        return
    emit_rows(table, out)
    summary = payload.get("summary") if isinstance(payload, dict) else None
    if summary:
        for k, v in summary.items():
            sys.stderr.write(f"# {k}={fmt_num(v) if not isinstance(v, str) else v}\n")


def _json_default(v):
    if isinstance(v, Table):
        return v.records()
    if isinstance(v, (np.integer, np.floating, np.ndarray)):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_forms(args) -> int:
    d = _require_disc(args)
    g = enumerate_reduced_forms(d)
    table = _forms_table(g)
    payload = {
        "d": d.value,
        "h": g.h,
        "fundamental": d.fundamental,
        "orders": list(g.orders()),
        "rows": table,
        "summary": {"h": g.h, "orders": ";".join(map(str, g.orders()))},
    }
    emit(payload, table, args.format, args.out_stream)
    return 0


def _forms_table(g: ClassGroup, **more) -> Table:
    """class_index, a, b, c of every class, then the columns `more`."""
    a, b, c = g.abc
    return Table({"class_index": np.arange(g.h), "a": a, "b": b, "c": c, **more})


def cmd_least_primes(args) -> int:
    d = _require_disc(args)
    g = enumerate_reduced_forms(d)
    absd = -d.value
    x_cap = eval_scale(args.x_cap, g.h, absd)
    x1 = scale_value(1.0, 1.0, 2.0 + args.eps, g.h, absd)
    x2 = scale_value(1.0, 2.0, 2.0, g.h, absd)
    sweep_cap = max(x_cap, x1, x2)
    lp, ln, capped = stats._least_sweep(g, sweep_cap, sieve_cap=args.sieve_cap)
    least = [p if p is not None and p < x_cap else None for p in lp]
    table = _forms_table(
        g,
        heegner_im=heegner.heegner_points(g).im,
        least_prime=least,
        is_ramified_prime=[p is not None and d.value % p == 0 for p in least],
    )
    max_p, median_p = stats.least_prime_summary(least)
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
    payload = {"d": d.value, "rows": table, "summary": summary}
    emit(payload, table, args.format, args.out_stream)
    return 0


def _require_disc(args):
    if args.disc is None:
        raise UsageError("--disc is required (flag or config)")
    arith.check_disc_limit(args.disc)  # before validate_discriminant factorizes |D|
    return validate_discriminant(args.disc)


def cmd_variance(args) -> int:
    d = _require_disc(args)
    t = args.t
    if t is None or not (2 <= t < math.inf):
        raise UsageError("--t must be given, finite and at least 2")
    w = stats.get_weight(args.weight)
    g = enumerate_reduced_forms(d)
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
    table = Table.of_rows([row], list(row))
    payload = {"rows": table}
    if args.format == "json":  # 2h floats that only JSON prints
        payload["psi_by_class"] = [float(x) for x in rep.psi_by_class]
        payload["psi_by_char_abs"] = [float(abs(z)) for z in rep.psi_by_char]
    emit(payload, table, args.format, args.out_stream)
    return 0


# Largest --n-max of dirichlet-check, whose arrays grow linearly in it:
# n_max = 10^7 takes about 1 s and 370 MiB
_N_MAX_LIMIT = 10**7


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
    if nmax > _N_MAX_LIMIT:
        raise UsageError(f"--n-max must be at most {_N_MAX_LIMIT}")
    mismatch, split_r = arith.divisor_formula_check(nmax, d)
    row = {
        "d": d.value,
        "n_max": nmax,
        "status": "ok" if mismatch is None else "mismatch",
        "first_mismatch": mismatch if mismatch is not None else "",
        "max_split_r": int(split_r.max(initial=0)),
        "w_d": arith.unit_count(d.value),
    }
    table = Table.of_rows([row], list(row))
    emit({"rows": table}, table, args.format, args.out_stream)
    if mismatch is not None:
        raise OracleMismatch(
            f"representation count and divisor formula differ first at n={mismatch}"
        )
    return 0


# Largest --l-terms of heegner, given or default: l_one_chi takes time
# linear in it, about 1.3 ns a term on a 2-core x86-64 box with both cores
# (2.7 ns on one), so 10^10 terms take about 13 s
_L_TERMS_LIMIT = 10**10


def cmd_heegner(args) -> int:
    d = _require_disc(args)
    psi_value = args.psi_value
    if not 0 < psi_value < math.inf:
        raise UsageError("--psi-value must be positive and finite")
    absd = -d.value
    terms = min(max(10**6, 100 * absd), _L_TERMS_LIMIT) if args.l_terms is None else args.l_terms
    if terms < absd:
        raise UsageError(f"--l-terms must be at least |D| = {absd}")
    if terms > _L_TERMS_LIMIT:
        raise UsageError(f"--l-terms must be at most {_L_TERMS_LIMIT}")
    g = enumerate_reduced_forms(d)
    x_cap = eval_scale(args.x_cap, g.h, absd)
    lp = stats.least_primes(g, x_cap, sieve_cap=args.sieve_cap)
    rep = heegner.repulsion_report(g, lp)
    est = arith.l_one_chi(d, terms)
    pairing, const = heegner.cramer_class_number_pairing(g, psi_value)
    table = _forms_table(
        g,
        heegner_re=rep.heegner_re,
        heegner_im=rep.heegner_im,
        least_prime=rep.least_prime,
        bound_ok=rep.bound_ok,
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
    payload = {"d": d.value, "rows": table, "summary": summary}
    emit(payload, table, args.format, args.out_stream)
    return 0


def _scan_columns(x_rules: list) -> list[str]:
    cols = ["d", "h"]
    for i in range(1, len(x_rules) + 1):
        cols += [f"x{i}", f"r{i}_ideal", f"r{i}_prime"]
    cols += ["max_p", "median_p", "t", "var", "var_ratio"]
    return cols


def _scan_groups(discs: list[int], h_cap: int) -> Iterator:
    """The class group of each D of discs, in order, structured, or the
    exception that fails D: built one batch at a time (classgroup.batches),
    each batch enumerated in one pass and walked in lockstep.  A D whose h
    passes --h-cap fails before the walk."""
    for batch in classgroup.batches(discs):
        built = classgroup.enumerate_groups(batch)
        for i, g in enumerate(built):
            if isinstance(g, ClassGroup) and g.h > h_cap:
                built[i] = UsageError(f"h = {g.h} exceeds cap {h_cap}")
        walked = iter(classgroup.group_structures([g for g in built if isinstance(g, ClassGroup)]))
        yield from (next(walked) if isinstance(g, ClassGroup) else g for g in built)


def _scan_job(g, x_rules, t_rule, w, sieve_cap: int) -> stats.Job:
    """The row of one D as a job of stats.run_jobs, from its class group g
    or the exception that failed it: its thresholds and T from the parsed
    rules, its psi sums (psi_job checks their limits), its least-prime
    sweep, then the row.  A failure on bad input or an internal check is
    the result instead: it fails this D only."""
    if isinstance(g, Exception):
        return g
    try:
        dv, absd = g.disc.value, -g.disc.value
        xs = [scale_value(*rule, g.h, absd) for rule in x_rules]
        t = max(2.0, scale_value(*t_rule, g.h, absd))
        psa = yield from stats.psi_job(g, t, w, sieve_cap)
        lp, ln, _ = yield from stats.sweep_job(g, max(xs), sieve_cap)
        rep = stats.variance_report(g, t, w, psa=psa)
        row: dict = {"d": dv, "h": g.h}
        for i, x in enumerate(xs, 1):
            row[f"x{i}"] = x
            row[f"r{i}_ideal"] = stats.count_exceptional(ln, x)
            row[f"r{i}_prime"] = stats.count_exceptional(lp, x)
        row["max_p"], row["median_p"] = stats.least_prime_summary(lp)
        row.update(t=t, var=rep.variance, var_ratio=rep.variance / (t * math.log(absd) ** 2))
        return row
    except (InvariantViolation, *_INPUT_ERRORS) as exc:
        return exc


def _scan_chunk(discs, x_rules, t_rule, w, sieve_cap: int, h_cap: int) -> list:
    """(D, row or the exception that failed it) for each D of discs, in
    order, from one stats.run_jobs call with a job per D; run_jobs reads
    the jobs lazily, so a batch of groups is built when its first job
    starts.  Rows and exceptions are plain data, so a chunk can run in a
    worker process."""
    jobs = (
        _scan_job(g, x_rules, t_rule, w, sieve_cap) for g in _scan_groups(discs, h_cap)
    )
    return list(zip(discs, stats.run_jobs(jobs, stats.PrimeSource(sieve_cap))))


# scan maps _scan_chunk over chunks of its D (arith._fork_map, one child
# process per chunk and the parent idle), dealt in turn so that each
# holds D of every size and costs about the same; no more chunks than
# _CHUNK_ABSD fits into their summed |D|: under the default rules a D's
# work grows about like |D|, and a smaller chunk (tens of ms) does not pay
# for starting a process.
_CHUNK_ABSD = 1 << 15


def _scan_chunks(discs: list[int], cpus: int) -> list[list[int]]:
    """discs dealt to n chunks, chunk i = discs[i::n]: one per CPU, fewer
    where the chunks would hold less than _CHUNK_ABSD summed |D| each."""
    n = max(1, min(cpus, len(discs), -sum(discs) // _CHUNK_ABSD))
    return [discs[i::n] for i in range(n)]


def cmd_scan(args) -> int:
    if args.range is None:
        raise UsageError("--range LO HI is required")
    lo, hi = sorted(args.range)
    arith.check_disc_limit(lo)  # before any D of the range is factorized
    # each rule parsed once, up front: a usage error, not a failure per D
    x_rules = [parse_scale(r) for r in args.x_rule or ["h*log2.1", "h2*log2"]]
    t_rule = parse_scale(args.t_rule)
    w = stats.get_weight(args.weight)
    chunks = _scan_chunks(list(fundamental_discriminants(lo, hi)), arith.usable_cpus())
    scan = functools.partial(
        _scan_chunk,
        x_rules=x_rules, t_rule=t_rule, w=w, sieve_cap=args.sieve_cap, h_cap=args.h_cap,
    )
    # a chunk whose worker was lost fails each of its D with that loss
    done = [
        [(dv, res) for dv in chunk] if isinstance(res, arith.WorkerLost) else res
        for chunk, res in zip(chunks, arith._fork_map(scan, chunks))
    ]
    rows = []
    failures: list[Exception] = []
    # each chunk comes back in scan order, decreasing D; merge them into it
    for dv, res in heapq.merge(*done, key=lambda r: -r[0]):
        if isinstance(res, dict):
            rows.append(res)
        else:
            failures.append(res)
            print(f"scan: D={dv} failed: {res}", file=sys.stderr)
    table = Table.of_rows(rows, _scan_columns(x_rules))
    emit(table, table, args.format, args.out_stream)
    if args.format == "csv":
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
    sp.add_argument("--l-terms", type=int, help="default min(max(10^6, 100|D|), 10^10)")
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
