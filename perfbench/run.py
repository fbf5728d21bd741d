"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload characterize-summit --seed 3 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints the per-layer metrics,
writing its spans to ``.perfbench_out/``.  The last line of standard output
is the result object; lines before it describe the environment and the
run.  The exit status is non-zero when any output mismatches.

``--record`` recomputes the output digests of every op the workloads can
draw and rewrites ``perfbench/expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

# Pin the environment before numpy is imported, for this process and every
# child it starts: the solver override silently swaps what is measured.
for _name in list(os.environ):
    if _name == "REPRO_DVFS_SOLVER" or _name.startswith("REPRO_BENCH_"):
        del os.environ[_name]
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

from common import EXPECTED_PATH, ROOT, SRC, digest  # noqa: E402

WORKLOADS = ("characterize-summit", "monitor-longhorn", "sched-summit", "serve")
#: Per-layer metric name -> key in the workload's raw layer table.
LAYER_ALIASES = {
    "telemetry.per_gpu_median_calls": "telemetry.per_gpu_median.calls",
    "sim.job.priced_jobs": "sim.job.price.items",
}
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def environment() -> dict:
    import numpy

    from repro.gpu.dvfs import default_solver

    return {
        "solver": default_solver(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def record() -> None:
    """Rewrite the recorded digests of every op in every pool."""
    import time

    from batch import BATCH_WORKLOADS
    from serve import HOT_VARIANTS, hot_key, hot_requests, offline_body

    doc: dict[str, dict[str, str]] = {}
    for name, workload in BATCH_WORKLOADS.items():
        doc[name] = {}
        for op_seed in range(workload.pool):
            t0 = time.perf_counter()
            out = workload.facade(workload.request(op_seed))
            print(f"{name} {op_seed}: {time.perf_counter() - t0:.3f} s",
                  flush=True)
            doc[name][str(op_seed)] = digest(*out.parts)
    doc["serve-hot"] = {
        hot_key(request): digest(offline_body(request))
        for variant in range(HOT_VARIANTS)
        for request in hot_requests(variant)
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = environment()
    print(json.dumps({"env": env, "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace}))

    if args.workload == "serve":
        from serve import run_serve

        run = run_serve(args.seed, args.seconds, bool(args.trace))
    else:
        from batch import run_batch

        run = run_batch(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    if run.get("info"):
        print(json.dumps({"info": run["info"]}))

    if args.trace:
        layers = run["layers"]
        metrics = {
            m["name"]: {
                "value": float(layers.get(LAYER_ALIASES.get(m["name"],
                                                            m["name"]), 0.0)),
                "unit": m["unit"],
            }
            for m in spec["per_layer"]
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "workload": args.workload,
                       "seed": args.seed, "layers": layers,
                       "spans": run["spans"].to_json()}, fh)
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    else:
        values = run["metrics"]
        metrics = {
            m["name"]: {"value": float(values[m["name"]][0]),
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    failed = int(run["failed"])
    print(json.dumps({"correct": failed == 0,
                      "attempted": int(run["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
