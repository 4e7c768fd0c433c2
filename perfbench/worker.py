"""One measured iteration in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json T_SPAWN

T_SPAWN is time.monotonic() just before the parent started this process.
The worker imports the package and builds the CLI parser (set-up), then
calls classprime.cli.main once per command of the spec, in order, with
tables going to files under the spec's run directory and stderr captured
beside them.  It prints one JSON line with its timings.  With "setup_only"
it stops after set-up; with "trace" it first installs the tracing wrappers
and writes the recorded spans to the run directory.
"""
from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _call(main, argv: list[str], err_path: Path) -> int:
    with open(err_path, "w", encoding="utf-8") as err, contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return 1


def run(spec: dict, t_spawn: float) -> dict:
    from classprime import cli

    cli.build_parser()
    setup_s = time.monotonic() - t_spawn
    if spec.get("setup_only"):
        return {"setup_s": setup_s}

    main = cli.main
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        main = tracer.span("cli", cli.main)

    run_dir = Path(spec["run_dir"])
    rcs = []
    t0 = time.perf_counter()
    for i, cmd in enumerate(spec["commands"]):
        argv = list(cmd) + ["--out", str(run_dir / f"cmd{i}.csv")]
        rcs.append(_call(main, argv, run_dir / f"cmd{i}.err"))
    wall_s = time.perf_counter() - t0

    if tracer is not None:
        tracer.dump(run_dir / "trace.json")
    np, sp = sys.modules.get("numpy"), sys.modules.get("scipy")
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rcs": rcs,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": getattr(np, "__version__", None),
            "scipy": getattr(sp, "__version__", None),
        },
    }


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text())
    print(json.dumps(run(spec, float(sys.argv[2]))))
