"""Tests for CSV persistence."""

import gzip

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.telemetry.dataset import MeasurementDataset
from repro.telemetry.io import dataset_to_csv_text, read_csv, write_csv


@pytest.fixture()
def dataset():
    return MeasurementDataset({
        "gpu_label": np.array(["a", "b"], dtype=object),
        "day": np.array([0, 3], dtype=np.int64),
        "power_w": np.array([297.5, 255.0]),
        "power_capped": np.array([True, False]),
    })


class TestRoundtrip:
    def test_plain_csv(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(dataset, path)
        back = read_csv(path)
        assert back.column_names == dataset.column_names
        np.testing.assert_array_equal(back["gpu_label"], dataset["gpu_label"])
        np.testing.assert_allclose(back["power_w"], dataset["power_w"])
        assert back["day"].dtype == np.int64
        assert back["power_capped"].dtype == bool
        np.testing.assert_array_equal(back["power_capped"], [True, False])

    def test_gzipped_csv(self, dataset, tmp_path):
        path = tmp_path / "data.csv.gz"
        write_csv(dataset, path)
        back = read_csv(path)
        np.testing.assert_allclose(back["power_w"], dataset["power_w"])
        # And the file really is gzip.
        assert path.read_bytes()[:2] == b"\x1f\x8b"

    def test_campaign_dataset_roundtrip(self, sgemm_dataset, tmp_path):
        path = tmp_path / "campaign.csv.gz"
        write_csv(sgemm_dataset, path)
        back = read_csv(path)
        assert back.n_rows == sgemm_dataset.n_rows
        np.testing.assert_allclose(
            back["performance_ms"], sgemm_dataset["performance_ms"]
        )


class TestFileBytes:
    """The file holds exactly the text, gzipped or not, and reads back."""

    @pytest.fixture()
    def quoted(self, sgemm_dataset):
        labels = np.array(['a,"b"', "two\r\nlines", "", " lead"], dtype=object)
        gpu = sgemm_dataset.column("gpu_index")
        return sgemm_dataset.with_column("gpu_label", labels[gpu % 4])

    @pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
    def test_write_csv_bytes_match_the_text(self, quoted, tmp_path, suffix):
        path = tmp_path / f"campaign{suffix}"
        write_csv(quoted, path)
        raw = path.read_bytes()
        if suffix.endswith(".gz"):
            raw = gzip.decompress(raw)
        assert raw == dataset_to_csv_text(quoted).encode("utf-8")

        back = read_csv(path)
        assert back.column_names == quoted.column_names
        for name in quoted.column_names:
            want = quoted.column(name)
            if want.dtype == object:
                assert back.column(name).tolist() == want.tolist()
            else:
                assert back.column(name).dtype == want.dtype
                assert back.column(name).tobytes() == want.tobytes()


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetError):
            read_csv(path)

    def test_header_without_types(self, tmp_path):
        path = tmp_path / "naked.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetError, match="dtype annotation"):
            read_csv(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a:q\n1\n")
        with pytest.raises(DatasetError, match="unknown column kind"):
            read_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a:f,b:f\n1,2\n3\n")
        with pytest.raises(DatasetError, match="fields"):
            read_csv(path)
