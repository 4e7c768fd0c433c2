"""Benchmark entry point.

    python3 perfbench/run.py --workload scan-2k --seed 0 --seconds 30 --trace 0

Closed loop, one client: each iteration is a fresh interpreter
(worker.py, PYTHONPATH=src) that calls classprime.cli.main once per
command of the workload, in order; the next iteration starts when it
exits.  Iterations repeat until --seconds have passed, and every
iteration's outputs go through the correctness gate.  Timings are medians
over iterations.  --trace 1 alternates untraced and traced iterations and
reports the per-layer split instead of the end-to-end metrics.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The lines before it repeat the metrics with quartiles, the
failure fraction and the run environment, which is also written with the
result to perfbench/.runs/<workload>-s<seed>/result.json.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # the whole run, set-up probes and iterations included

E2E_UNITS = {
    "wall_s": "s",
    "discs_per_s": "1/s",
    "primes_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
LAYER_UNITS = {
    "arith.sieve_s": "s",
    "arith.sieve_calls": "count",
    "arith.sieve_primes": "count",
    "arith.sieve_ns_per_prime": "ns",
    "arith.classify_calls": "count",
    "arith.chi_table_s": "s",
    "arith.l_one_s": "s",
    "arith.l_one_terms": "count",
    "arith.l_one_peak_mb": "MiB",
    "stats.psi_self_s": "s",
    "stats.psi_primes": "count",
    "stats.psi_ns_per_prime": "ns",
    "stats.sweep_self_s": "s",
    "stats.sweep_primes": "count",
    "stats.sweep_ns_per_prime": "ns",
    "stats.sweep_fill_ratio": "ratio",
    "stats.chars_s": "s",
    "classgroup.enumerate_s": "s",
    "classgroup.enumerate_calls": "count",
    "classgroup.structure_s": "s",
    "classgroup.compose_idx_calls": "count",
    "qform.compose_calls": "count",
    "qform.reduce_calls": "count",
    "heegner_s": "s",
    "cli.self_s": "s",
    "cli.emit_s": "s",
    "cli.rows": "count",
    "trace.overhead_frac": "ratio",
}
# self times of all spans must add up to the traced wall time this closely
ACCOUNTING_TOL = 0.01


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, references or worker)."""


def spawn(spec: dict, run_dir: Path, deadline: float) -> dict:
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), repr(t_spawn)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - t_spawn),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


def iteration(wl: W.Workload, ref: dict, expected: list[int], run_dir: Path,
              trace: bool, verdict: gate.Verdict, deadline: float) -> dict:
    for f in run_dir.glob("cmd*"):
        f.unlink()
    res = spawn({"commands": wl.commands, "run_dir": str(run_dir), "trace": trace},
                run_dir, deadline)
    for i, (cmd, rc) in enumerate(zip(wl.commands, res["rcs"])):
        out = gate.parse_output(_read(run_dir / f"cmd{i}.csv"), _read(run_dir / f"cmd{i}.err"))
        label = " ".join(cmd)
        if wl.scan_window is not None:
            gate.check_scan(rc, out, ref, expected, label, verdict)
        else:
            gate.check_command(rc, out, ref["commands"][i], label, verdict)
    if trace:
        res["trace"] = json.loads((run_dir / "trace.json").read_text())
    return res


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment(versions: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def e2e_samples(plain: list[dict], setups: list[float], n_discs: int,
                n_primes: int) -> dict[str, list[float]]:
    walls = [r["wall_s"] for r in plain]
    return {
        "wall_s": walls,
        "discs_per_s": [n_discs / w for w in walls],
        "primes_per_s": [n_primes / w for w in walls],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": setups,
    }


def layer_samples(plain: list[dict], traced: list[dict]) -> dict[str, list[float]]:
    per_iter = [tracing.layer_metrics(r["trace"]) for r in traced]
    layers = {k: [m[k] for m in per_iter] for k in per_iter[0]}
    wall = statistics.median(r["wall_s"] for r in plain)
    layers["trace.overhead_frac"] = [
        statistics.median(r["wall_s"] for r in traced) / wall - 1.0]
    return layers


def measure(wl: W.Workload, seconds: float, trace: bool, run_dir: Path) -> dict:
    if not (ROOT / "src" / "classprime" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'classprime'} is missing")
    ref_file = W.ref_path(wl.name, wl.key)
    if not ref_file.is_file():
        raise BenchError(f"no reference output {ref_file}")
    ref = W.load_reference(wl)
    expected = W.fundamental_discs(*wl.scan_window) if wl.scan_window else []
    n_discs = W.discs_per_iteration(wl)
    n_primes = W.primes_to_classify(wl, ref)

    verdict = gate.Verdict()
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [spawn({"setup_only": True}, run_dir, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    t_start = time.monotonic()
    while not plain or time.monotonic() - t_start < seconds:
        plain.append(iteration(wl, ref, expected, run_dir, False, verdict, deadline))
        if trace:
            traced.append(iteration(wl, ref, expected, run_dir, True, verdict, deadline))
    setups += [r["setup_s"] for r in plain + traced]

    samples = e2e_samples(plain, setups, n_discs, n_primes)
    problems = list(verdict.problems)
    if trace:
        samples.update(layer_samples(plain, traced))
        for r in traced:
            total = sum(tracing.self_times(r["trace"]["spans"]))
            if abs(total - r["wall_s"]) > ACCOUNTING_TOL * r["wall_s"]:
                problems.append(f"span self times add up to {total:.4f} s, "
                                f"traced wall time is {r['wall_s']:.4f} s")
    return {
        "correct": verdict.failed == 0 and not problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": problems,
        "samples": samples,
        "iterations": len(plain),
        "traced_iterations": len(traced),
        "n_discs": n_discs,
        "n_primes": n_primes,
        "env": environment(plain[0]["versions"]),
    }


def report(wl: W.Workload, res: dict, trace: bool) -> dict:
    units = LAYER_UNITS if trace else E2E_UNITS
    env = res["env"]
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload={wl.name} seed={wl.seed} input={wl.key} held_out={int(wl.held_out)} "
          f"iterations={res['iterations']} traced={res['traced_iterations']} "
          f"discs={res['n_discs']} primes={res['n_primes']}")
    metrics = {}
    for name, unit in units.items():
        vals = res["samples"][name]
        q1, med, q3 = quartiles(vals)
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name:30s} {med:14.6g} {unit:6s} q1={q1:.6g} q3={q3:.6g} n={len(vals)}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"{'failed_frac':30s} {frac:14.6g} ratio  ({res['failed']}/{res['attempted']})")
    for p in res["problems"]:
        print(f"# problem: {p}")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=None,
                    help="also append the full result to this JSON list")
    args = ap.parse_args(argv)

    wl = W.build(args.workload, args.seed)
    run_dir = HERE / ".runs" / f"{wl.name}-s{wl.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        res = measure(wl, args.seconds, bool(args.trace), run_dir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    line = report(wl, res, bool(args.trace))
    full = {"workload": wl.name, "seed": wl.seed, "input": wl.key,
            "trace": args.trace, "seconds": args.seconds, **res, "result": line}
    (run_dir / "result.json").write_text(json.dumps(full, indent=1))
    if args.record:
        prior = json.loads(args.record.read_text()) if args.record.exists() else []
        args.record.write_text(json.dumps(prior + [full], indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
