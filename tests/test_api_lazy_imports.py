"""``import repro.api`` loads only what a verb uses.

Each short job starts a fresh interpreter, so the facade's import cost is
paid on every launch.  The scheduler, chaos and replay packages, scipy
(sparse graphs only) and ``multiprocessing`` (process pools only) load on
first use; the facade re-exports their names through one lazy table.
These tests pin both halves: a fresh interpreter stays lean, and every
lazy name resolves to its home module's object.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules no verb of ``characterize``/``monitor`` needs at import time.
NOT_ON_IMPORT = (
    "scipy",
    "repro.sched",
    "repro.chaos",
    "repro.obs.replay",
    "repro.service",
    "repro.loadgen",
    "multiprocessing",
)


def _fresh(code: str) -> dict:
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


class TestFreshInterpreter:
    def test_import_loads_no_verb_package(self):
        loaded = _fresh(
            "import json, sys\n"
            "import repro.api\n"
            f"print(json.dumps([m for m in {NOT_ON_IMPORT!r} "
            "if m in sys.modules]))\n"
        )
        assert loaded == []

    def test_characterize_never_loads_scipy(self):
        loaded = _fresh(
            "import json, sys\n"
            "import repro.api as api\n"
            "cluster = api.load_preset('longhorn')\n"
            "api.characterize(cluster=cluster,\n"
            "                 workload=api.load_workload('sgemm'),\n"
            "                 config=api.CampaignConfig(days=1))\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'scipy')))\n"
        )
        assert loaded == []

    def test_first_resolution_is_thread_safe(self):
        """Threads racing on a first lazy lookup all get the one object."""
        same = _fresh(
            "import json, sys, threading\n"
            "sys.setswitchinterval(1e-6)\n"
            "import repro.api as api\n"
            "barrier = threading.Barrier(8, timeout=60)\n"
            "got = []\n"
            "def resolve():\n"
            "    barrier.wait()\n"
            "    got.append(api.run_schedule)\n"
            "threads = [threading.Thread(target=resolve) for _ in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(timeout=60)\n"
            "assert not any(t.is_alive() for t in threads)\n"
            "import repro.sched\n"
            "print(json.dumps([len(got), all(f is repro.sched.run_schedule\n"
            "                                for f in got)]))\n"
        )
        assert same == [8, True]


@pytest.mark.parametrize("name", sorted(api._LAZY_EXPORTS))
class TestLazyNames:
    def test_resolves_to_home_module_object(self, name):
        home = importlib.import_module(api._LAZY_EXPORTS[name])
        assert getattr(api, name) is getattr(home, name)
        # Cached after the first lookup: later reads skip __getattr__.
        assert vars(api)[name] is getattr(home, name)

    def test_from_import(self, name):
        scope: dict = {}
        exec(f"from repro.api import {name}", scope)
        assert scope[name] is getattr(api, name)

    def test_listed_by_dir(self, name):
        assert name in dir(api)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_verb'"):
        api.no_such_verb
    assert not hasattr(api, "score_scenario")
