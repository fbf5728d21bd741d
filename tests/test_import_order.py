"""No import order deadlocks or half-initialised packages.

Package ``__init__``s re-export through lazy ``{name: home module}``
tables (:mod:`repro._lazy`), so no package init imports a sibling's and
any module can be the first one a program imports.  Each case below
starts a fresh interpreter, imports one module first, and resolves every
name in its ``__all__``; a lazily served name must be its home module's
own object.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every package, plus the two modules that used to close the cycle
#: ``gpu.dvfs -> obs -> health -> core -> ... -> gpu.dvfs``.
FIRST_IMPORTS = (
    "repro",
    "repro.api",
    "repro.api.requests",
    "repro.chaos",
    "repro.cluster",
    "repro.core",
    "repro.gpu",
    "repro.hostbench",
    "repro.loadgen",
    "repro.mitigation",
    "repro.obs",
    "repro.sched",
    "repro.service",
    "repro.sim",
    "repro.telemetry",
    "repro.workloads",
    "repro.gpu.dvfs",
    "repro.obs.health",
)

#: A package with a lazy table, and a name whose first lookup imports a
#: long chain (the suite pulls in the campaign and the analysis steps).
RACE_PACKAGE, RACE_NAME = "repro.core", "VariabilitySuite"


def _fresh(code: str) -> object:
    """Run ``code`` in a new interpreter on ``src``; return its JSON line."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module_name", FIRST_IMPORTS)
def test_imported_first_resolves_every_export(module_name):
    problems = _fresh(
        "import importlib, json\n"
        f"module = importlib.import_module({module_name!r})\n"
        "table = getattr(module, '_LAZY_EXPORTS', {})\n"
        "problems = []\n"
        "for name in module.__all__:\n"
        "    value = getattr(module, name)\n"
        "    home = table.get(name)\n"
        "    if home and value is not getattr(\n"
        "            importlib.import_module(home), name):\n"
        "        problems.append(name)\n"
        "print(json.dumps(problems))\n"
    )
    assert problems == []


def test_first_lookup_race_on_a_package_table():
    """Threads racing on a package's first lazy lookup get one object."""
    same = _fresh(
        "import importlib, json, sys, threading\n"
        "sys.setswitchinterval(1e-6)\n"
        f"package = importlib.import_module({RACE_PACKAGE!r})\n"
        "barrier = threading.Barrier(8, timeout=60)\n"
        "got = []\n"
        "def resolve():\n"
        "    barrier.wait()\n"
        f"    got.append(getattr(package, {RACE_NAME!r}))\n"
        "threads = [threading.Thread(target=resolve) for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        f"home = importlib.import_module(package._LAZY_EXPORTS[{RACE_NAME!r}])\n"
        f"print(json.dumps([len(got), all(v is getattr(home, {RACE_NAME!r})\n"
        "                                for v in got)]))\n"
    )
    assert same == [8, True]

