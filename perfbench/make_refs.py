"""Record reference outputs, and screen candidates for the seed pools.

    PYTHONPATH=src python3 perfbench/make_refs.py record
    PYTHONPATH=src python3 perfbench/make_refs.py screen primes-1e7 [COUNT]
    PYTHONPATH=src python3 perfbench/make_refs.py screen large-h [COUNT]

`record` runs every pool entry's commands in-process and writes
perfbench/refs/.  Run it only at a commit whose outputs are known good:
the references are the correctness gate of every later run.  `screen`
prints, per candidate, h and the number of compositions group_structure
makes, the two properties the pool rules in workloads.py select on.
"""
from __future__ import annotations

import contextlib
import io
import sys

import numpy as np

import gate
import workloads as W


def run_cli(argv: list[str]) -> dict:
    from classprime import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv}: exit code {rc}\n{err.getvalue()}")
    o = gate.parse_output(out.getvalue(), err.getvalue())
    return {"argv": argv, "header": o.header, "rows": o.rows, "summary": o.summary}


def record() -> None:
    lo = W.SCAN_LO - max(W.SCAN_OFFSETS)
    scan = run_cli(["scan", "--range", str(lo), str(W.SCAN_HI)])
    rows = {r[0]: r for r in scan["rows"]}
    missing = set(map(str, W.fundamental_discs(lo, W.SCAN_HI))) ^ set(rows)
    if missing:
        raise SystemExit(f"scan table and fundamental discriminants differ: {missing}")
    W.save_reference(W.ref_path("scan-2k", ""), {"header": scan["header"], "rows": rows})
    for name, pool in (("primes-1e7", W.PRIMES_POOL), ("large-h", W.LARGE_H_POOL)):
        for seed in range(len(pool)):
            wl = W.build(name, seed)
            ref = {"commands": [run_cli(list(c)) for c in wl.commands]}
            W.save_reference(W.ref_path(name, wl.key), ref)
            print(name, wl.key, "recorded", flush=True)


def _euler_ranked(lo: int, hi: int) -> list[int]:
    """Fundamental D = 1 mod 4 in [-hi, -lo], largest estimated h first."""
    n = np.arange(lo, hi + 1, dtype=np.int64)
    n = n[(n % 4 == 3) & W._squarefree_mask(n)]
    d = -n
    log_l = np.zeros(len(n))
    for p in W.primes_upto(1999).tolist():
        if p == 2:
            chi = np.where(np.isin(d % 8, (1, 7)), 1, -1)
        else:
            r, acc, e = d % p, np.ones(len(n), dtype=np.int64), (p - 1) // 2
            base = r.copy()
            while e:
                if e & 1:
                    acc = acc * base % p
                base = base * base % p
                e >>= 1
            chi = np.where(r == 0, 0, np.where(acc == 1, 1, -1))
        log_l -= np.log1p(-chi / p)
    est = np.sqrt(n) * np.exp(log_l)
    return d[np.argsort(-est, kind="stable")].tolist()


def screen(name: str, count: int) -> None:
    from classprime import classgroup, qform

    calls = [0]

    def counting(f, g):
        calls[0] += 1
        return qform.compose(f, g)

    classgroup.compose = counting
    if name == "primes-1e7":
        ps = W.primes_upto(10**7 + 60_000)
        cands = [-int(p) for p in ps[ps >= 10**7] if p % 8 == 3]
    else:
        cands = _euler_ranked(10**7, 103 * 10**5)
    print("D h compositions orders")
    for d in cands[:count]:
        calls[0] = 0
        g = classgroup.group_structure(classgroup.enumerate_reduced_forms(d))
        print(d, g.h, calls[0], ";".join(map(str, g.orders())), flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["record"]:
        record()
    elif sys.argv[1:2] == ["screen"] and len(sys.argv) >= 3:
        screen(sys.argv[2], int(sys.argv[3]) if len(sys.argv) > 3 else 40)
    else:
        raise SystemExit(__doc__)
