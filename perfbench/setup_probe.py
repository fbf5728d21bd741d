"""Fresh-interpreter set-up probe: ``import repro.api`` then one preset.

Usage: ``python3 perfbench/setup_probe.py CLUSTER SEED SCALE`` (with
``PYTHONPATH=src``).  Prints one JSON line with the import and preset
times in milliseconds as soon as the preset is built.
"""

import json
import sys
import time

t0 = time.perf_counter()
import repro.api as api  # noqa: E402

t1 = time.perf_counter()
api.load_preset(sys.argv[1], seed=int(sys.argv[2]), scale=float(sys.argv[3]))
t2 = time.perf_counter()
print(
    json.dumps({"import_ms": (t1 - t0) * 1e3, "preset_ms": (t2 - t1) * 1e3}),
    flush=True,
)
