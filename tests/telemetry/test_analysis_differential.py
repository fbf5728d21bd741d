"""Sort-once analysis layer vs the per-group loop oracles, byte for byte.

Every production reduction in :mod:`tests.telemetry.analysis_oracle`'s
list must match its oracle on arbitrary datasets: ragged, single-row and
empty groups, ties, signed zeros, NaN and infinities, int64 beyond 2**53
(and sums beyond 2**63), bool and float32 values, int and string keys,
shuffled rows, and identity columns that are and are not constant within
a group.  Equality is on dtype and raw bytes, not on ``==``.

The segment CSV encoder is held to the row-by-row writer on
campaign-shaped tables too: (day, run) and GPU keys, columns constant or
nearly constant per group, labels that need quoting, signed zeros, NaN
and infinities inside otherwise constant columns, and object cells that
compare equal but print apart (``1``, ``1.0``, ``True``).
"""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import FaultSchedule, NodeLoss, Scenario, compile_plan
from repro.cluster import longhorn
from repro.core import repeatability, scheduler
from repro.sim import CampaignConfig, run_campaign
from repro.telemetry import io as telemetry_io
from repro.telemetry.dataset import MeasurementDataset
from repro.telemetry.io import dataset_to_csv_text
from repro.workloads import sgemm

from . import analysis_oracle as oracle

SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308,
                     1.5, 2.5]),
    st.floats(allow_nan=False, width=64),
)
_FLOAT32S = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, 1.1, 3.4e38, -3.4e38]),
    st.floats(allow_nan=False, width=32),
)
_INTS = st.one_of(
    st.sampled_from([0, 1, -1, 2**53 + 1, 2**62, 2**62 + 1, -(2**62),
                     2**63 - 1]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
_VALUE_KINDS = {
    "float64": (_FLOATS, np.float64),
    "float32": (_FLOAT32S, np.float32),
    "int64": (_INTS, np.int64),
    "bool": (st.booleans(), np.bool_),
}


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    if got.dtype == object:
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()


def assert_same_dataset(got: MeasurementDataset, want: MeasurementDataset) -> None:
    assert got.column_names == want.column_names
    for name in want.column_names:
        assert_same_array(got.column(name), want.column(name))


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and message of the error it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - compared, not hidden
            return type(exc), str(exc)


@st.composite
def datasets(draw, value_kinds=tuple(_VALUE_KINDS), max_groups=6):
    """A shuffled long-form table of ragged per-GPU groups."""
    values_st, dtype = _VALUE_KINDS[draw(st.sampled_from(value_kinds))]
    sizes = draw(st.lists(st.integers(1, 5), max_size=max_groups))
    gpu = np.repeat(np.arange(len(sizes)), sizes)
    n = gpu.shape[0]
    order = np.asarray(draw(st.permutations(range(n))), dtype=np.intp)
    gpu = gpu[order]
    values = np.asarray(
        draw(st.lists(values_st, min_size=n, max_size=n)), dtype=dtype
    )
    varying = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n,
                                       max_size=n)), dtype=np.int64)
    node_width = draw(st.integers(1, 3))
    columns = {
        "gpu_index": gpu,
        "gpu_label": np.array([f"g{g:02d}" for g in gpu], dtype=object),
        "node_label": np.array([f"n{g // node_width}" for g in gpu],
                               dtype=object),
        "run": varying,
        "performance_ms": values,
    }
    return MeasurementDataset(columns)


class TestPerGpuMedian:
    @SETTINGS
    @given(ds=datasets(), key=st.sampled_from(["gpu_index", "gpu_label"]))
    def test_matches_oracle(self, ds, key):
        got = outcome(ds.per_gpu_median, "performance_ms", key)
        want = outcome(oracle.per_gpu_median, ds, "performance_ms", key)
        assert_same_dataset(got, want)

    @pytest.mark.parametrize("values", [
        [-0.0], [-0.0, -0.0], [0.0, -0.0, -0.0, -0.0], [-0.0, -0.0, 1.0],
        [1e308, 1e308], [np.inf, -np.inf], [np.nan, 1.0], [1.0, np.nan, 2.0],
        np.array([-0.0, -0.0], dtype=np.float32),
        np.array([1.1, 2.2], dtype=np.float32),
        np.array([2**62, 2**62 + 2], dtype=np.int64),
        np.array([2**53 + 1, 2**53 + 2], dtype=np.int64),
        np.array([True, False], dtype=bool),
    ], ids=repr)
    def test_pinned_groups(self, values):
        # Cases where a middle-element median that does not mimic
        # np.median's mean (seed, widening, NaN) gets the bits wrong.
        values = np.asarray(values)
        ds = MeasurementDataset({
            "gpu_index": np.zeros(values.shape[0], dtype=np.int64),
            "performance_ms": values,
        })
        want = outcome(oracle.per_gpu_median, ds, "performance_ms")
        assert_same_dataset(ds.per_gpu_median("performance_ms"), want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, bool])
    def test_empty_dataset(self, dtype):
        ds = MeasurementDataset({
            "gpu_index": np.zeros(0, dtype=np.int64),
            "performance_ms": np.zeros(0, dtype=dtype),
        })
        got = ds.per_gpu_median("performance_ms")
        assert got.n_rows == 0
        assert_same_dataset(got, oracle.per_gpu_median(ds, "performance_ms"))

    def test_nan_keys_form_one_group(self):
        ds = MeasurementDataset({
            "gpu_index": np.array([np.nan, 1.0, np.nan, -0.0, 0.0]),
            "performance_ms": np.array([4.0, 1.0, 2.0, 3.0, 5.0]),
        })
        got = ds.per_gpu_median("performance_ms")
        assert got.n_rows == 3
        assert_same_dataset(got, oracle.per_gpu_median(ds, "performance_ms"))


class TestNodeRollups:
    @SETTINGS
    @given(ds=datasets(value_kinds=("float64", "int64")),
           n_gpus=st.integers(1, 4))
    def test_slow_assignment_matches_oracle(self, ds, n_gpus):
        got = outcome(scheduler.slow_assignment_probability, ds, n_gpus)
        want = outcome(oracle.slow_assignment_probability, ds, n_gpus)
        assert repr(got) == repr(want)

    @SETTINGS
    @given(ds=datasets(value_kinds=("float64", "float32", "int64")))
    def test_node_scores_match_oracle(self, ds):
        got = outcome(scheduler.node_variability_scores, ds)
        want = outcome(oracle.node_variability_scores, ds)
        assert repr(got) == repr(want)


class TestRepeatability:
    @SETTINGS
    @given(ds=datasets(value_kinds=("float64", "float32", "int64")),
           min_runs=st.integers(2, 3))
    def test_matches_oracle(self, ds, min_runs):
        got = outcome(repeatability.per_gpu_repeatability, ds,
                      min_runs=min_runs)
        want = outcome(oracle.per_gpu_repeatability, ds, min_runs=min_runs)
        if isinstance(want, MeasurementDataset):
            assert_same_dataset(got, want)
        else:
            assert got == want


_TEXT = st.text(
    alphabet=st.sampled_from(list('ab ,"\n\r\'') + ["é"]), max_size=6
)


@st.composite
def csv_datasets(draw):
    n = draw(st.integers(0, 12))

    def column(elements, dtype):
        return np.asarray(
            draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype
        )

    return MeasurementDataset({
        "label": column(_TEXT, object),
        "f64": column(_FLOATS | st.just(np.nan), np.float64),
        "f32": column(_FLOAT32S, np.float32),
        "i64": column(_INTS, np.int64),
        "flag": column(st.booleans(), np.bool_),
    })


class TestCsvWriter:
    @SETTINGS
    @given(ds=csv_datasets(), chunk=st.integers(1, 5))
    def test_matches_oracle(self, ds, chunk):
        with mock.patch.object(telemetry_io, "_CSV_CHUNK_ROWS", chunk):
            got = dataset_to_csv_text(ds)
        assert got == oracle.dataset_to_csv_text(ds)

    def test_many_chunks_match_oracle(self, sgemm_dataset):
        ds = MeasurementDataset.concat([sgemm_dataset] * 16)
        assert ds.n_rows > 2 * telemetry_io._CSV_CHUNK_ROWS
        assert dataset_to_csv_text(ds) == oracle.dataset_to_csv_text(ds)

    def test_float32_prints_shortest_repr(self):
        ds = MeasurementDataset({"x": np.array([1.1], dtype=np.float32)})
        assert dataset_to_csv_text(ds).splitlines()[1] == "1.1"


_LABELS = st.sampled_from(
    ["", "a", "a,b", 'say "hi"', "two\r\nlines", "cr\r", "lf\n", " lead",
     "é"]
) | _TEXT
#: Values whose cells print differently although some compare equal.
_ODD_FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0])
_LOOSE_OBJECTS = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, "1", None])
_FEW_FLOATS = st.sampled_from([1395.0, 1530.0, -0.0, 0.0, np.nan, np.inf])


@st.composite
def campaign_csv_datasets(draw):
    """A campaign-shaped table: one row per (day, run, GPU), some lost.

    Identity columns are constant per (day, run) or per GPU; "nearly"
    constant ones have some cells overridden by values that compare equal
    but print apart.  Columns come in any order, so segment columns sit
    between measurement columns, and a drawn subset may lack the keys.
    """
    n_days = draw(st.integers(1, 2))
    n_runs = draw(st.integers(1, 2))
    n_gpus = draw(st.integers(0, 4))
    day, run, gpu = (a.ravel() for a in np.meshgrid(
        np.arange(n_days), np.arange(n_runs), np.arange(n_gpus),
        indexing="ij"))
    kept = np.asarray(draw(st.lists(
        st.sampled_from([True, True, True, False]),
        min_size=gpu.size, max_size=gpu.size)), dtype=bool)
    day, run, gpu = day[kept], run[kept], gpu[kept]
    if draw(st.booleans()):
        order = np.asarray(draw(st.permutations(range(gpu.size))),
                           dtype=np.intp)
        day, run, gpu = day[order], run[order], gpu[order]
    n = gpu.size

    def per(keys, n_keys, elements, dtype, overrides=None):
        values = draw(st.lists(elements, min_size=n_keys, max_size=n_keys))
        cells = [values[k] for k in keys]
        if overrides is not None:
            cells = [cell if new is None else new for cell, new in zip(
                cells, draw(st.lists(st.none() | overrides,
                                     min_size=n, max_size=n)))]
        column = np.empty(n, dtype=dtype)
        column[:] = cells
        return column

    def per_row(elements, dtype):
        return per(np.arange(n), n, elements, dtype)

    columns = {
        "cluster": per(np.zeros(n, dtype=np.intp), 1, _LABELS, object),
        "day": day.astype(np.int64),
        "weekday": per(day, n_days, _LABELS, object),
        "run": run.astype(np.int64),
        "gpu_index": gpu.astype(np.int64),
        "gpu_label": per(gpu, n_gpus, _LABELS, object),
        "performance_ms": per_row(_FLOATS, np.float64),
        "frequency_mhz": per_row(_FEW_FLOATS, np.float64),
        "inlet_c": per(gpu, n_gpus, _FLOATS, np.float64, _ODD_FLOATS),
        "limit_w": per(gpu, n_gpus, _FLOAT32S, np.float32, _ODD_FLOATS),
        "mixed": per(gpu, n_gpus, _LOOSE_OBJECTS, object, _LOOSE_OBJECTS),
        "power_capped": per_row(st.booleans(), np.bool_),
        "defect_kind": per(gpu, n_gpus, st.integers(0, 3), np.int64),
        "row": per(gpu, n_gpus, _LABELS, object, _LABELS),
    }
    names = draw(st.permutations(list(columns)))
    if draw(st.booleans()):
        names = names[:draw(st.integers(1, len(names)))]
    return MeasurementDataset({name: columns[name] for name in names})


class TestCsvSegments:
    @settings(SETTINGS, max_examples=200)
    @given(ds=campaign_csv_datasets(), chunk=st.integers(1, 5))
    def test_matches_oracle(self, ds, chunk):
        with mock.patch.object(telemetry_io, "_CSV_CHUNK_ROWS", chunk):
            got = dataset_to_csv_text(ds)
        assert got == oracle.dataset_to_csv_text(ds)

    @pytest.mark.parametrize("ds", [
        # The bit patterns differ, so the GPU is not constant: a test by
        # ``==`` would print the -0.0 row as 0.0.
        MeasurementDataset({
            "gpu_index": np.array([0, 0, 1, 1]),
            "inlet_c": np.array([0.0, -0.0, 1.0, 1.0]),
        }),
        # np.unique merges the zeros of a low-cardinality column.
        MeasurementDataset({"x": np.array([0.0, -0.0] * 4)}),
        MeasurementDataset({"x": np.array([0.0, -0.0] * 4, dtype=np.float32)}),
        # NaN never equals itself, yet a NaN group prints alike.
        MeasurementDataset({
            "gpu_index": np.array([0, 0, 1, 1]),
            "inlet_c": np.array([np.nan, np.nan, 1.0, np.nan]),
        }),
        # 1 == 1.0 == True, printed "1", "1.0" and "True".
        MeasurementDataset({
            "gpu_index": np.array([0, 0, 1, 1]),
            "mixed": np.array([1, 1.0, True, True], dtype=object),
        }),
        MeasurementDataset({
            "gpu_index": np.array([0, 0, 1, 1]),
            "mixed": np.array([0.0, -0.0, "a", "a"], dtype=object),
        }),
        # A quoted label holding CRLF, in a GPU and a (day, run) segment.
        MeasurementDataset({
            "day": np.array([0, 1, 0, 1]),
            "weekday": np.array(["x,y", "two\r\nlines"] * 2, dtype=object),
            "run": np.zeros(4, dtype=np.int64),
            "gpu_index": np.array([0, 0, 1, 1]),
            "gpu_label": np.array(["a\r\nb"] * 2 + ['say "hi"'] * 2,
                                  dtype=object),
        }),
        # An empty label alone in its segment prints as nothing...
        MeasurementDataset({
            "gpu_index": np.array([0, 0, 1, 1]),
            "performance_ms": np.array([1.5, 2.5, 3.5, 4.5]),
            "label": np.array(["", "", "b", "b"], dtype=object),
            "power_w": np.array([1.0, 2.0, 3.0, 4.0]),
        }),
        MeasurementDataset({
            "performance_ms": np.array([1.5, 2.5, 3.5, 4.5]),
            "label": np.array(["", None, "", None], dtype=object),
        }),
        # ...unless it is the whole row, which the writer prints as "".
        MeasurementDataset({"label": np.array(["", "", None], dtype=object)}),
        MeasurementDataset({
            "gpu_index": np.array([0, 0, 1, 1]),
            "label": np.array(["", "", "", ""], dtype=object),
        }),
        MeasurementDataset({"x": np.zeros(0)}),
        MeasurementDataset({"x": np.zeros(1), "y": np.array([""], dtype=object)}),
    ], ids=[
        "signed-zero-gpu-column", "signed-zero-distinct-f64",
        "signed-zero-distinct-f32", "nan-gpu-column", "one-float-true",
        "object-signed-zero", "crlf-labels", "empty-in-segment",
        "empty-and-none-cells", "lone-empty-record", "empty-label-segment",
        "empty-dataset", "one-row",
    ])
    def test_pinned_pitfalls(self, ds):
        assert dataset_to_csv_text(ds) == oracle.dataset_to_csv_text(ds)

    def test_chaos_campaign_with_lost_nodes(self):
        cluster = longhorn(seed=11, scale=0.25)
        scenario = Scenario(name="loss", description="two outages", faults=(
            NodeLoss(FaultSchedule(onset_day=1, recovery_day=2), index=0),
            NodeLoss(FaultSchedule(onset_day=2), scope="cabinet", index=1,
                     count=2),
        ))
        cluster.set_fault_plan(compile_plan(scenario, cluster))
        ds = run_campaign(cluster, sgemm(), CampaignConfig(days=3,
                                                           runs_per_day=2))
        per_day = np.bincount(ds.column("day"))
        assert per_day[1] < per_day[0] and per_day[2] < per_day[1]
        columns = [ds.column(name) for name in ds.column_names]
        # Five (day, run) columns and four GPU columns, one slot each.
        assert len(telemetry_io._slots(ds, columns)) <= len(columns) - 7
        assert dataset_to_csv_text(ds) == oracle.dataset_to_csv_text(ds)
