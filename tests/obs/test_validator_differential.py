"""The compiled schema validator against the tree-walking oracle.

Real documents — a scheduling report and a campaign manifest — are
mutated at random places: a key dropped, a value swapped for one of
another JSON type (bool for int, a string outside an enum, a list item
of the wrong type).  The compiled validator must accept exactly the
documents the oracle accepts and reject the others with the same
message, so the first violation and its path agree.
"""

from __future__ import annotations

import copy
import functools
from typing import Any

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import cloudlab, get_preset
from repro.errors import ConfigError
from repro.obs import MANIFEST_SCHEMA, Manifest, validate_manifest
from repro.sched import (
    FifoPolicy,
    SCHEDULING_REPORT_SCHEMA,
    TraceConfig,
    build_scheduling_report,
    generate_trace,
    run_schedule,
)
from repro.sim import CampaignConfig, run_campaign
from repro.workloads import sgemm

from tests.obs import validator_oracle

#: Replacement values: one of every JSON type, plus ints and strings
#: that fit a type but fall outside an enum.
REPLACEMENTS = (
    True, False, None, 0, 7, 1.5, -0.0, "", "magic", "fleet",
    [], [1], ["a"], [True], {}, {"k": 1},
)


@functools.cache
def _documents() -> tuple[tuple[dict[str, Any], dict[str, Any]], ...]:
    cluster = get_preset("longhorn", seed=11, scale=0.25)
    outcome = run_schedule(
        cluster, generate_trace(TraceConfig(n_jobs=6, seed=4)), FifoPolicy()
    )
    report = build_scheduling_report(
        cluster.name, outcome, FifoPolicy().describe(),
        cluster.topology.n_gpus, trace_seed=4,
    ).to_dict()
    manifest = Manifest()
    run_campaign(
        cloudlab(seed=5, scale=0.5), sgemm(),
        CampaignConfig(days=1, runs_per_day=1), manifest=manifest,
    )
    return (
        (report, SCHEDULING_REPORT_SCHEMA),
        (manifest.to_dict(), MANIFEST_SCHEMA),
    )


def _paths(value: Any, prefix: tuple = ()) -> list[tuple]:
    """Every location in a JSON document, the root included."""
    out = [prefix]
    if isinstance(value, dict):
        for key, sub in value.items():
            out.extend(_paths(sub, prefix + (key,)))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            out.extend(_paths(sub, prefix + (i,)))
    return out


def _outcome(validate, doc, schema) -> str | None:
    try:
        validate(doc, schema)
    except ConfigError as exc:
        return str(exc)
    return None


@st.composite
def mutated(draw):
    doc, schema = draw(st.sampled_from(_documents()))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(_paths(doc)))
        if not path:
            doc = draw(st.sampled_from(REPLACEMENTS))
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(
                draw(st.sampled_from(REPLACEMENTS))
            )
    return doc, schema


def test_unmutated_documents_validate():
    for doc, schema in _documents():
        validate_manifest(doc, schema)
        validator_oracle.validate(doc, schema)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated())
def test_compiled_validator_matches_the_tree_walk(case):
    doc, schema = case
    assert _outcome(validate_manifest, doc, schema) == _outcome(
        validator_oracle.validate, doc, schema
    )


def test_message_names_the_path():
    report, schema = _documents()[0]
    doc = copy.deepcopy(report)
    doc["jobs"][3]["gpus"][0] = True
    message = _outcome(validate_manifest, doc, schema)
    assert message == (
        "manifest invalid at $.jobs[3].gpus[0]: expected integer, got bool"
    )
    assert message == _outcome(validator_oracle.validate, doc, schema)
