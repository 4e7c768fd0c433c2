"""Metric names and the self-time arithmetic of the traced split."""
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
import tracing
import workloads as W

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _printed(trace: bool) -> dict:
    """Units by name in the result line, from the functions measure() uses."""
    plain = [{"wall_s": w, "peak_rss_mb": 80.0} for w in (2.0, 2.5)]
    samples = run.e2e_samples(plain, [0.4, 0.5], n_discs=611, n_primes=10**6)
    if trace:
        traced = [{"wall_s": 2.2, "trace": _synthetic_trace()}]
        samples.update(run.layer_samples(plain, traced))
    res = {
        "correct": True, "attempted": 3, "failed": 0, "problems": [],
        "samples": samples, "iterations": 2, "traced_iterations": int(trace),
        "n_discs": 611, "n_primes": 10**6, "env": {"git_sha": None},
    }
    with redirect_stdout(io.StringIO()):
        line = run.report(W.build("primes-1e7", 0), res, trace)
    line = json.loads(json.dumps(line))  # main() prints it as the last line
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return {k: v["unit"] for k, v in line["metrics"].items()}


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    assert _printed(trace) == _declared(section)


def test_measured_metrics_are_exactly_the_declared_ones():
    plain = [{"wall_s": 2.0, "peak_rss_mb": 80.0}]
    assert set(run.e2e_samples(plain, [0.5], 1, 1)) == set(_declared("end_to_end"))
    traced = [{"wall_s": 2.2, "trace": _synthetic_trace()}]
    assert set(run.layer_samples(plain, traced)) == set(_declared("per_layer"))


def test_setup_metric_has_the_largest_bound():
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _synthetic_trace():
    # cli [0, 10] -> psi [1, 6] -> sieve [2, 3] (40 primes)
    #             -> sweep [6, 9] -> sieve [6.5, 7] (10 primes), reduce counted
    spans = [
        ["cli", 0.0, 10.0, -1, 0],
        ["stats.psi", 1.0, 6.0, 0, 0],
        ["arith.sieve", 2.0, 3.0, 1, 40],
        ["stats.sweep", 6.0, 9.0, 0, 5],
        ["arith.sieve", 6.5, 7.0, 3, 10],
    ]
    return {"spans": spans, "counts": {"sieve_calls": 2, "reduce_calls": 7},
            "l_one_peak_bytes": 3 * 2**20}


def test_self_time_is_span_minus_children():
    own = tracing.self_times(_synthetic_trace()["spans"])
    assert own == pytest.approx([2.0, 4.0, 1.0, 2.5, 0.5])
    assert sum(own) == pytest.approx(10.0)  # adds up to the root span


def test_layer_metrics_on_synthetic_trace():
    m = tracing.layer_metrics(_synthetic_trace())
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["stats.psi_self_s"] == pytest.approx(4.0)
    assert m["stats.psi_primes"] == 40
    assert m["stats.psi_ns_per_prime"] == pytest.approx(1e9 * 4.0 / 40)
    assert m["stats.sweep_self_s"] == pytest.approx(2.5)
    assert m["stats.sweep_primes"] == 10
    assert m["stats.sweep_fill_ratio"] == pytest.approx(0.5)
    assert m["arith.sieve_s"] == pytest.approx(1.5)
    assert m["arith.sieve_primes"] == 50
    assert m["qform.reduce_calls"] == 7
    assert m["arith.l_one_peak_mb"] == pytest.approx(3.0)
    assert m["arith.l_one_s"] == 0.0


def test_tracer_records_nested_spans():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.span("stats.psi", lambda: [1, 2, 3], value=len)
    outer = tr.span("cli", lambda: inner())
    outer()
    assert [s[0] for s in tr.spans] == ["cli", "stats.psi"]
    assert tr.spans[1][3] == 0 and tr.spans[1][4] == 3
    assert tracing.self_times(tr.spans) == [2.0, 1.0]


def test_l_one_peak_counts_the_untraced_table_as_held():
    np = pytest.importorskip("numpy")
    tr = tracing.Tracer()
    table = tr.chi_table(lambda: np.ones(2**20, dtype=np.int8))  # 1 MiB

    class Estimate:
        terms = 2**20

    def l_one():
        t = table()
        x = np.ones(2**20, dtype=np.float64)  # 8 MiB while the table is held
        return Estimate() if t.sum() and x.sum() else None

    tr.l_one(l_one)()
    assert 9.0 <= tr.l_one_peak_bytes / 2**20 < 9.5
    assert [s[0] for s in tr.spans] == ["arith.l_one", "arith.chi_table"]
    assert tr.spans[0][4] == 2**20
