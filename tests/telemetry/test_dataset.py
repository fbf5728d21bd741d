"""Tests for the columnar measurement dataset."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DatasetError
from repro.telemetry.dataset import MeasurementDataset


@pytest.fixture()
def dataset():
    return MeasurementDataset({
        "gpu_index": np.array([0, 0, 1, 1, 2, 2]),
        "gpu_label": np.array(["a", "a", "b", "b", "c", "c"], dtype=object),
        "cabinet": np.array(["c1", "c1", "c1", "c1", "c2", "c2"], dtype=object),
        "run": np.array([0, 1, 0, 1, 0, 1]),
        "performance_ms": np.array([10.0, 12.0, 20.0, 22.0, 30.0, 28.0]),
    })


class TestConstruction:
    def test_basics(self, dataset):
        assert len(dataset) == 6
        assert dataset.n_rows == 6
        assert "run" in dataset
        assert "bogus" not in dataset

    def test_unequal_columns_rejected(self):
        with pytest.raises(DatasetError):
            MeasurementDataset({"a": np.zeros(3), "b": np.zeros(4)})

    def test_2d_column_rejected(self):
        with pytest.raises(DatasetError):
            MeasurementDataset({"a": np.zeros((2, 2))})

    def test_empty_mapping_rejected(self):
        with pytest.raises(DatasetError):
            MeasurementDataset({})

    def test_strings_stored_as_object(self, dataset):
        assert dataset.column("gpu_label").dtype == object

    def test_unknown_column_raises(self, dataset):
        with pytest.raises(DatasetError, match="unknown column"):
            dataset.column("nope")

    def test_getitem(self, dataset):
        np.testing.assert_array_equal(dataset["run"], dataset.column("run"))


class TestSelection:
    def test_filter(self, dataset):
        sub = dataset.filter(dataset["run"] == 0)
        assert sub.n_rows == 3

    def test_filter_bad_mask(self, dataset):
        with pytest.raises(DatasetError):
            dataset.filter(np.ones(5, dtype=bool))

    def test_where(self, dataset):
        sub = dataset.where(gpu_label="b", run=1)
        assert sub.n_rows == 1
        assert sub["performance_ms"][0] == 22.0

    def test_sort_by(self, dataset):
        sorted_ds = dataset.sort_by("performance_ms")
        values = sorted_ds["performance_ms"]
        assert np.all(np.diff(values) >= 0)


class TestGrouping:
    def test_groupby(self, dataset):
        groups = dict(dataset.groupby("cabinet"))
        assert set(groups) == {"c1", "c2"}
        assert groups["c1"].n_rows == 4

    def test_group_reduce(self, dataset):
        medians = dataset.group_reduce("cabinet", "performance_ms")
        assert medians["c2"] == 29.0

    def test_unique(self, dataset):
        np.testing.assert_array_equal(dataset.unique("run"), [0, 1])

    def test_per_gpu_median(self, dataset):
        med = dataset.per_gpu_median("performance_ms")
        assert med.n_rows == 3
        np.testing.assert_allclose(
            np.sort(med["performance_ms"]), [11.0, 21.0, 29.0]
        )

    def test_per_gpu_median_keeps_constant_columns(self, dataset):
        med = dataset.per_gpu_median("performance_ms")
        assert "gpu_label" in med
        assert "cabinet" in med
        assert "run" not in med  # varies within a GPU group


class TestMutationAndConcat:
    def test_with_column(self, dataset):
        ds2 = dataset.with_column("extra", np.arange(6))
        assert "extra" in ds2
        assert "extra" not in dataset  # original untouched

    def test_with_column_wrong_length(self, dataset):
        with pytest.raises(DatasetError):
            dataset.with_column("extra", np.arange(5))

    def test_concat(self, dataset):
        both = MeasurementDataset.concat([dataset, dataset])
        assert both.n_rows == 12

    def test_concat_mismatched_columns(self, dataset):
        other = MeasurementDataset({"x": np.zeros(2)})
        with pytest.raises(DatasetError):
            MeasurementDataset.concat([dataset, other])

    def test_concat_empty_list(self):
        with pytest.raises(DatasetError):
            MeasurementDataset.concat([])

    def test_head_and_rows(self, dataset):
        assert dataset.head(2).n_rows == 2
        rows = dataset.head(1).to_rows()
        assert rows[0]["gpu_label"] == "a"


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1, max_size=60,
    ))
    def test_property_filter_then_concat_identity(self, values):
        arr = np.asarray(values)
        ds = MeasurementDataset({"v": arr})
        mask = arr >= np.median(arr)
        a = ds.filter(mask)
        b = ds.filter(~mask)
        merged = MeasurementDataset.concat([a, b])
        assert merged.n_rows == ds.n_rows
        assert merged["v"].sum() == pytest.approx(arr.sum())

    @settings(max_examples=25, deadline=None)
    @given(n_runs=st.integers(min_value=1, max_value=6),
           n_gpus=st.integers(min_value=1, max_value=8))
    def test_property_per_gpu_median_row_count(self, n_runs, n_gpus):
        gpu = np.repeat(np.arange(n_gpus), n_runs)
        vals = np.arange(n_gpus * n_runs, dtype=float)
        ds = MeasurementDataset({"gpu_index": gpu, "performance_ms": vals})
        med = ds.per_gpu_median("performance_ms")
        assert med.n_rows == n_gpus


class TestImmutability:
    """Columns are read-only, which is what makes the medians memo sound."""

    def test_column_is_read_only(self, dataset):
        with pytest.raises(ValueError):
            dataset.column("performance_ms")[0] = 0.0

    def test_callers_array_stays_writable(self):
        values = np.array([1.0, 2.0, 3.0])
        MeasurementDataset({"performance_ms": values})
        assert values.flags.writeable
        values[0] = 5.0

    @pytest.mark.parametrize("values", [
        np.array([1.0, 2.0, 3.0]),
        np.array(["a", "b", "c"], dtype=object),
    ], ids=["float64", "object"])
    def test_column_shares_the_callers_array(self, values):
        # Slicing a campaign per task, or concatenating it back, must not
        # copy its identity columns once more for every dataset built.
        ds = MeasurementDataset({"x": values})
        column = ds.column("x")
        assert np.shares_memory(column, values)
        assert not column.flags.writeable
        assert values.flags.writeable
        with pytest.raises(ValueError):
            column[0] = values[1]
        values[0] = values[1]

    def test_unpickled_columns_stay_read_only(self, dataset):
        import pickle

        dataset.per_gpu_median("performance_ms")
        back = pickle.loads(pickle.dumps(dataset))
        assert back.column_names == dataset.column_names
        with pytest.raises(ValueError):
            back.column("performance_ms")[0] = 0.0

    def test_median_is_memoized(self, dataset):
        first = dataset.per_gpu_median("performance_ms")
        assert dataset.per_gpu_median("performance_ms") is first
        assert dataset.per_gpu_median("performance_ms", "gpu_label") is not first

    @pytest.mark.parametrize("derive", [
        lambda ds: ds.with_column("performance_ms", ds["performance_ms"] * 2),
        lambda ds: ds.filter(ds["gpu_index"] != 1),
        lambda ds: MeasurementDataset.concat([ds, ds.with_column(
            "performance_ms", ds["performance_ms"] + 100)]),
        lambda ds: ds.with_column(
            "performance_ms", ds["performance_ms"][::-1]).sort_by("run"),
    ], ids=["with_column", "filter", "concat", "sort_by"])
    def test_derived_datasets_get_their_own_medians(self, dataset, derive):
        from .analysis_oracle import per_gpu_median

        before = dataset.per_gpu_median("performance_ms")
        derived = derive(dataset)
        got = derived.per_gpu_median("performance_ms")
        want = per_gpu_median(derived, "performance_ms")
        assert got is not before
        np.testing.assert_array_equal(
            got["performance_ms"], want["performance_ms"]
        )
        assert not np.array_equal(
            got["performance_ms"], before["performance_ms"]
        )
