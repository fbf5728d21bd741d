"""Golden event-log guard: the engine and its oracle reproduce fixed bytes.

``tests/sched/golden/`` holds the canonical event logs of a 120-job
half-Longhorn run (the scheduling benchmark's configuration) for every
built-in policy, generated once by the original dispatch loop, which
lives on verbatim as the oracle in ``tests/sched/reference_engine.py``.  These
tests replay the identical run through the production engine *and*
through the oracle and compare the serialized logs *byte for byte*: any
drift in placement order, backfill decisions, RNG stream consumption, or
event formatting fails here before it can silently change results, and
the oracle the differential tests trust stays pinned too.
"""

from pathlib import Path

import pytest

from repro import api
from repro.sched import event_log_lines
from tests.sched.reference_engine import run_reference

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The scheduling benchmark's configuration (benchmarks/bench_ext_scheduling).
SEED = 2022
SCALE = 0.5
TRACE = dict(n_jobs=120, arrival_rate_per_hour=900.0, seed=SEED)
PROFILE_DAYS = 2


@pytest.fixture(scope="module")
def cluster():
    return api.load_preset("longhorn", seed=SEED, scale=SCALE)


def _assert_golden(events, policy, runner):
    golden = (GOLDEN_DIR / f"events_{policy}.jsonl").read_text()
    replayed = "\n".join(event_log_lines(events)) + "\n"
    assert replayed == golden, (
        f"{runner} event log diverged from golden bytes for {policy!r}"
    )


@pytest.mark.slow
@pytest.mark.parametrize("policy", api.POLICY_NAMES)
def test_indexed_engine_reproduces_golden_bytes(cluster, policy):
    result = api.schedule(
        cluster=cluster,
        policy=policy,
        trace=api.TraceConfig(**TRACE),
        profile_config=api.CampaignConfig(days=PROFILE_DAYS),
    )
    _assert_golden(result.events, policy, "production")


@pytest.mark.slow
@pytest.mark.parametrize("policy", api.POLICY_NAMES)
def test_reference_oracle_reproduces_golden_bytes(cluster, policy):
    # The policy api.schedule would build (profiling campaign included),
    # so only the dispatch loop differs from the production test above.
    from repro.api import _build_policy

    built, _ = _build_policy(
        policy, cluster,
        profile_workload=None,
        profile_config=api.CampaignConfig(days=PROFILE_DAYS),
        workers=None, tracer=None, manifest=None,
    )
    outcome = run_reference(
        cluster, api.generate_trace(api.TraceConfig(**TRACE)), built
    )
    _assert_golden(outcome.events, policy, "reference oracle")


def test_golden_files_cover_every_policy():
    present = {p.stem for p in GOLDEN_DIR.glob("events_*.jsonl")}
    assert present == {f"events_{name}" for name in api.POLICY_NAMES}
