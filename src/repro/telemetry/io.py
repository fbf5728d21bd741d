"""Persistence: CSV for measurement datasets, JSON for telemetry traces.

The CSV header encodes each column's dtype (``name:kind``) so a round-trip
restores numeric columns as floats/ints and identity columns as strings —
no type-guessing.  Files gzip transparently when the path ends in ``.gz``.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
from pathlib import Path
from typing import IO

import numpy as np

from ..errors import DatasetError, TelemetryError
from .dataset import MeasurementDataset
from .trace import TelemetryTrace

__all__ = [
    "write_csv",
    "read_csv",
    "dataset_to_csv_text",
    "write_trace_json",
    "read_trace_json",
]

_KIND_FLOAT = "f"
_KIND_INT = "i"
_KIND_STR = "s"
_KIND_BOOL = "b"


def _kind_of(arr: np.ndarray) -> str:
    if arr.dtype == object or arr.dtype.kind in ("U", "S"):
        return _KIND_STR
    if arr.dtype.kind == "b":
        return _KIND_BOOL
    if arr.dtype.kind in ("i", "u"):
        return _KIND_INT
    if arr.dtype.kind == "f":
        return _KIND_FLOAT
    raise DatasetError(f"cannot persist column dtype {arr.dtype}")


def _open(path: Path, mode: str) -> IO:
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8",
                                newline="")
    return open(path, mode, encoding="utf-8", newline="")


#: Rows formatted per ``writerows`` call: bounds the cells held at once.
_CSV_CHUNK_ROWS = 4096


def _cells(chunk: np.ndarray) -> list:
    """One column chunk as the objects ``csv.writer`` formats.

    Python scalars print exactly as numpy's do for int, bool and float64;
    float32 and object columns keep their per-element numpy scalars, since
    a float32 widened to a Python float prints more digits.
    """
    if chunk.dtype.kind in "biu" or chunk.dtype == np.float64:
        return chunk.tolist()
    return list(chunk)


def _write_csv_to(dataset: MeasurementDataset, fh: IO) -> None:
    names = dataset.column_names
    kinds = {name: _kind_of(dataset.column(name)) for name in names}
    writer = csv.writer(fh)
    writer.writerow([f"{name}:{kinds[name]}" for name in names])
    columns = [dataset.column(name) for name in names]
    for start in range(0, dataset.n_rows, _CSV_CHUNK_ROWS):
        stop = start + _CSV_CHUNK_ROWS
        writer.writerows(zip(*[_cells(col[start:stop]) for col in columns]))


def write_csv(dataset: MeasurementDataset, path: str | Path) -> None:
    """Write a dataset to (optionally gzipped) CSV with typed headers."""
    with _open(Path(path), "w") as fh:
        _write_csv_to(dataset, fh)


def dataset_to_csv_text(dataset: MeasurementDataset) -> str:
    """The exact CSV serialization of a dataset, as a string.

    Byte-identical to what :func:`write_csv` puts on disk (before any gzip
    layer) — the representation the golden-regression fixtures pin.
    """
    buffer = io.StringIO(newline="")
    _write_csv_to(dataset, buffer)
    return buffer.getvalue()


def read_csv(path: str | Path) -> MeasurementDataset:
    """Read a dataset written by :func:`write_csv`."""
    path = Path(path)
    with _open(path, "r") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path} is empty") from None
        names: list[str] = []
        kinds: list[str] = []
        for entry in header:
            if ":" not in entry:
                raise DatasetError(
                    f"{path} header entry {entry!r} lacks a dtype annotation"
                )
            name, kind = entry.rsplit(":", 1)
            if kind not in (_KIND_FLOAT, _KIND_INT, _KIND_STR, _KIND_BOOL):
                raise DatasetError(f"unknown column kind {kind!r} in {path}")
            names.append(name)
            kinds.append(kind)
        raw: list[list[str]] = [[] for _ in names]
        for row in reader:
            if len(row) != len(names):
                raise DatasetError(
                    f"{path}: row has {len(row)} fields, expected {len(names)}"
                )
            for i, cell in enumerate(row):
                raw[i].append(cell)
    columns: dict[str, np.ndarray] = {}
    for name, kind, cells in zip(names, kinds, raw):
        if kind == _KIND_FLOAT:
            columns[name] = np.asarray(cells, dtype=float)
        elif kind == _KIND_INT:
            columns[name] = np.asarray(cells, dtype=np.int64)
        elif kind == _KIND_BOOL:
            columns[name] = np.asarray([c == "True" for c in cells])
        else:
            columns[name] = np.asarray(cells, dtype=object)
    return MeasurementDataset(columns)


# ---------------------------------------------------------------------------
# telemetry traces <-> JSON
# ---------------------------------------------------------------------------

_TRACE_FORMAT_VERSION = 1


def write_trace_json(trace: TelemetryTrace, path: str | Path) -> None:
    """Write one telemetry trace as (optionally gzipped) JSON."""
    payload = {
        "format_version": _TRACE_FORMAT_VERSION,
        "label": trace.label,
        "time_s": trace.time_s.tolist(),
        "frequency_mhz": trace.frequency_mhz.tolist(),
        "power_w": trace.power_w.tolist(),
        "temperature_c": trace.temperature_c.tolist(),
        "kernel_starts_s": trace.kernel_starts_s.tolist(),
    }
    path = Path(path)
    text = json.dumps(payload)
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path.write_text(text)


def read_trace_json(path: str | Path) -> TelemetryTrace:
    """Read a trace written by :func:`write_trace_json`."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = json.loads(path.read_text())
    version = payload.get("format_version")
    if version != _TRACE_FORMAT_VERSION:
        raise TelemetryError(
            f"{path}: unsupported trace format version {version!r}"
        )
    try:
        return TelemetryTrace(
            time_s=np.asarray(payload["time_s"], dtype=float),
            frequency_mhz=np.asarray(payload["frequency_mhz"], dtype=float),
            power_w=np.asarray(payload["power_w"], dtype=float),
            temperature_c=np.asarray(payload["temperature_c"], dtype=float),
            kernel_starts_s=np.asarray(
                payload.get("kernel_starts_s", []), dtype=float
            ),
            label=str(payload.get("label", "")),
        )
    except KeyError as missing:
        raise TelemetryError(f"{path}: missing trace field {missing}") from None
