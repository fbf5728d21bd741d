"""Persistence: CSV for measurement datasets, JSON for telemetry traces.

The CSV header encodes each column's dtype (``name:kind``) so a round-trip
restores numeric columns as floats/ints and identity columns as strings —
no type-guessing.  Files gzip transparently when the path ends in ``.gz``.

The CSV text is exactly what one ``csv.writer`` row per dataset row
prints, but it is built from row segments, since most cells of a campaign
repeat.  Identity columns depend only on the (day, run) or only on the
GPU, so a run of adjacent columns that prints alike within every group of
one key is a segment: each group's cells go through ``csv.writer`` once,
which keeps ``QUOTE_MINIMAL`` quoting exact, and rows gather the segment
text by the group index.  A numeric column with few distinct values
formats each once; the rest print cell by cell.  Each row is one
``','.join`` of its pieces, chunk by chunk.

Equality is not print identity, so constancy and distinctness are tested
on what prints: floats by bit pattern (``-0.0 == 0.0``, and NaN never
equals itself), object columns only when every cell is a ``str`` (``1 ==
1.0 == True``).  Formatted rows are told apart by the writer's calls,
never by splitting on ``"\\r\\n"``, which a quoted label may hold.
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
from .dataset import GroupIndex, MeasurementDataset
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


#: Rows joined per ``write`` call: bounds the cell strings held at once.
_CSV_CHUNK_ROWS = 2048

#: Key columns whose groups may share one formatted row segment: each
#: (day, run) and each GPU.
_SEGMENT_KEYS = (("day", "run"), ("gpu_index",))


class _Lines(list):
    """A ``csv.writer`` target that keeps each written row as one string."""

    write = list.append


def _cells(values: np.ndarray) -> list:
    """A column's cells as the objects ``csv.writer`` formats.

    Python scalars print exactly as numpy's do for int, bool and float64;
    float32 and object columns keep their per-element numpy scalars, since
    a float32 widened to a Python float prints more digits.
    """
    if values.dtype.kind in "biu" or values.dtype == np.float64:
        return values.tolist()
    return list(values)


def _writer_texts(rows, lone: bool) -> list[str]:
    """Each row's ``csv.writer`` text, ``QUOTE_MINIMAL`` quoting and all.

    Rows are told apart by the writer's calls, never by splitting on the
    line terminator, which a quoted field may hold.  The writer prints an
    empty one-field record as ``""``; that stands only where the field is
    the whole CSV row (``lone``), and is empty anywhere else.
    """
    lines = _Lines()
    csv.writer(lines).writerows(rows)
    texts = [line[:-2] for line in lines]
    return texts if lone else ["" if text == '""' else text for text in texts]


def _cell_texts(values: np.ndarray, lone: bool) -> list[str]:
    """Each cell of a column exactly as ``csv.writer`` prints it.

    Numbers never need quoting, so they print through ``str``; the writer
    prints floats by ``repr``, which is the same text.
    """
    if values.dtype == object:
        return _writer_texts(zip(values.tolist()), lone)
    return list(map(str, _cells(values)))


def _print_key(column: np.ndarray) -> np.ndarray | None:
    """An array whose cells are equal only where ``column``'s print alike.

    ``==`` is not print identity: ``-0.0 == 0.0`` (and ``np.unique`` merges
    them), NaN never equals itself, and ``1 == 1.0 == True`` in an object
    column.  So floats compare by bit pattern, and object columns only
    when every cell is a ``str``; other columns have no key (``None``).
    """
    if column.dtype.kind in "biu":
        return column
    if column.dtype.kind == "f" and column.itemsize in (2, 4, 8):
        return column.view(f"i{column.itemsize}")
    if column.dtype == object and set(map(type, column.tolist())) <= {str}:
        return column
    return None


def _constant(print_key: np.ndarray, groups: GroupIndex) -> bool:
    """Whether every cell prints as its group's first cell."""
    firsts = print_key[groups.first]
    return bool(np.all(print_key == firsts[groups.inverse]))


def _key_groups(dataset: MeasurementDataset,
                key: tuple[str, ...]) -> GroupIndex | None:
    """The rows grouped by numeric key columns, or ``None``.

    ``None`` also where groups are so small that a segment would be
    formatted nearly once per row anyway.
    """
    if not all(name in dataset and dataset.column(name).dtype.kind in "biuf"
               for name in key):
        return None
    if len(key) == 1:
        groups = dataset.group_index(key[0])
    else:
        combined = 0
        for name in key:
            part = GroupIndex.of(dataset.column(name))
            combined = combined * part.n_groups + part.inverse
        groups = GroupIndex.of(combined)
    return groups if 2 * groups.n_groups <= dataset.n_rows else None


def _segment_slot(groups: GroupIndex, columns: list[np.ndarray],
                  lone: bool) -> tuple:
    """Adjacent columns constant per group: one writer row per group."""
    rows = zip(*[_cells(column[groups.first]) for column in columns])
    return np.array(_writer_texts(rows, lone), dtype=object), groups.inverse


def _column_slot(column: np.ndarray, print_key: np.ndarray | None,
                 lone: bool) -> tuple:
    """A numeric column with few distinct values formats each one once."""
    if print_key is not None and print_key.dtype != object:
        distinct, inverse = np.unique(print_key, return_inverse=True)
        if 2 * distinct.shape[0] <= column.shape[0]:
            texts = _cell_texts(distinct.view(column.dtype), lone)
            return np.array(texts, dtype=object), inverse
    return column, None


def _slots(dataset: MeasurementDataset, columns: list[np.ndarray]) -> list:
    """The pieces of every CSV row, left to right.

    A slot ``(texts, inverse)`` prints row ``i`` as ``texts[inverse[i]]``;
    a slot ``(column, None)`` prints its cells one by one.  A column joins
    a key's segment if it prints alike within every group of the key,
    preferring the segment on its left, then the key with fewest groups.
    """
    lone = len(columns) == 1
    keys = [groups for groups in (_key_groups(dataset, key)
                                  for key in _SEGMENT_KEYS)
            if groups is not None]
    keys.sort(key=lambda groups: groups.n_groups)
    slots: list = []
    segment: tuple | None = None  # (groups, columns) being extended
    for column in columns:
        print_key = _print_key(column)
        tried = keys if not segment else [segment[0]] + [
            groups for groups in keys if groups is not segment[0]
        ]
        owner = None if print_key is None else next(
            (groups for groups in tried if _constant(print_key, groups)), None
        )
        if segment and owner is segment[0]:
            segment[1].append(column)
            continue
        if segment:
            slots.append(_segment_slot(*segment, lone))
            segment = None
        if owner is not None:
            segment = (owner, [column])
        else:
            slots.append(_column_slot(column, print_key, lone))
    if segment:
        slots.append(_segment_slot(*segment, lone))
    return slots


def _write_csv_to(dataset: MeasurementDataset, fh: IO) -> None:
    names = dataset.column_names
    columns = [dataset.column(name) for name in names]
    csv.writer(fh).writerow(
        [f"{name}:{_kind_of(column)}" for name, column in zip(names, columns)]
    )
    lone = len(columns) == 1
    slots = _slots(dataset, columns)
    for start in range(0, dataset.n_rows, _CSV_CHUNK_ROWS):
        stop = start + _CSV_CHUNK_ROWS
        pieces = [
            _cell_texts(texts[start:stop], lone) if inverse is None
            else texts[inverse[start:stop]].tolist()
            for texts, inverse in slots
        ]
        fh.write("\r\n".join(map(",".join, zip(*pieces))) + "\r\n")


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
