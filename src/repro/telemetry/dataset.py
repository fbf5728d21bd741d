"""Long-form measurement datasets (the study's 18,800 hours of records).

A :class:`MeasurementDataset` is a minimal columnar table — a dict of
equal-length NumPy arrays — with exactly the operations the analysis suite
needs: filtering, grouping, concatenation, and derived columns.  It avoids
a pandas dependency while staying vectorized.

Conventions: one row per (GPU, run); metric columns follow
:mod:`repro.telemetry.sample` names; identity columns (``cluster``,
``workload``, ``gpu_label``, ``node_label``, ``cabinet``, ``day`` ...) are
produced by the campaign runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import DatasetError

__all__ = ["GroupIndex", "MeasurementDataset"]


def _as_column(values: Any) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind in ("U", "S", "O"):
        arr = arr.astype(object, copy=False)
    # A read-only view: the caller's array stays writable, and nothing can
    # change a column under the dataset's memoized reductions.
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class GroupIndex:
    """The rows of a dataset grouped by one key column, from one stable sort.

    Groups are numbered in ascending key order, as :func:`numpy.unique`
    numbers them (NaN keys form one group).  ``order[starts[g]:starts[g] +
    counts[g]]`` are the rows of group ``g`` in ascending row order, so
    :attr:`first` is each group's first occurrence; ``inverse`` maps every
    row to its group.
    """

    order: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray

    @classmethod
    def of(cls, keys: np.ndarray) -> "GroupIndex":
        """Group the rows of ``keys``."""
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        new = np.ones(ordered.shape[0], dtype=bool)
        new[1:] = ordered[1:] != ordered[:-1]
        if ordered.dtype.kind in "cfmM":
            new[1:] &= ~(np.isnan(ordered[1:]) & np.isnan(ordered[:-1]))
        starts = np.flatnonzero(new)
        inverse = np.empty(order.shape[0], dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        counts = np.diff(starts, append=order.shape[0])
        return cls(order, starts, counts, inverse)

    @property
    def n_groups(self) -> int:
        """Number of distinct keys."""
        return int(self.starts.shape[0])

    @property
    def first(self) -> np.ndarray:
        """Row index of each group's first occurrence."""
        return self.order[self.starts]

    def sorted_values(self, values: np.ndarray) -> np.ndarray:
        """``values`` laid out group by group, ascending within each group.

        NaNs sort last, so a group's last element is NaN iff it holds one.
        """
        return values[np.lexsort((values, self.inverse))]

    def medians(self, values: np.ndarray) -> np.ndarray:
        """Each group's ``np.median`` of ``values``, bit for bit.

        ``np.median`` is the mean of the middle element(s): a sum seeded at
        ``+0.0`` (a lone ``-0.0`` comes out ``+0.0``) divided by the count.
        Integer and bool input is widened to float64 before the sum, float16
        is summed in float32, and other floats keep their precision.  A
        group holding a NaN yields NaN.
        """
        if self.n_groups == 0:
            return np.empty(0)
        dtype = np.float64 if values.dtype.kind in "biu" else values.dtype
        ordered = self.sorted_values(values).astype(
            np.promote_types(dtype, np.float32), copy=False
        )
        zero = ordered.dtype.type(0.0)
        half = self.counts // 2
        mid = ordered[self.starts + half]
        out = zero + mid
        even = self.counts % 2 == 0
        lo = ordered[self.starts[even] + half[even] - 1]
        out[even] = ((zero + lo) + mid[even]) / 2
        last = ordered[self.starts + self.counts - 1]
        nan = np.isnan(last)
        out[nan] = last[nan]
        return out.astype(dtype, copy=False)


class MeasurementDataset:
    """A columnar table of measurements.

    Parameters
    ----------
    columns:
        Mapping of column name to 1-D array-like; all columns must have the
        same length.  String-ish columns are stored as object arrays.
    """

    def __init__(self, columns: Mapping[str, Any]) -> None:
        if not columns:
            raise DatasetError("a dataset needs at least one column")
        data: dict[str, np.ndarray] = {}
        n = None
        for name, values in columns.items():
            arr = _as_column(values)
            if arr.ndim != 1:
                raise DatasetError(f"column {name!r} must be 1-D, got {arr.ndim}-D")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise DatasetError(
                    f"column {name!r} has {arr.shape[0]} rows, expected {n}"
                )
            data[name] = arr
        self._data = data
        self._n = int(n if n is not None else 0)
        # Group indexes and per-GPU medians, computed once per instance;
        # sound because columns are read-only.
        self._memo: dict[tuple, Any] = {}

    def __reduce__(self):
        # Rebuild through the constructor: unpickled arrays come back
        # writable, and the memo is cheaper to recompute than to ship.
        return (MeasurementDataset, (self._data,))

    # -- basics ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n

    @property
    def column_names(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._data)

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def column(self, name: str) -> np.ndarray:
        """The array backing column ``name``.

        Columns are read-only: writing through one raises ``ValueError``.
        A column may share memory with the array the dataset was built
        from; that array stays writable, but writing into it afterwards is
        unsupported, because the dataset memoizes its per-group reductions.
        """
        try:
            return self._data[name]
        except KeyError:
            raise DatasetError(
                f"unknown column {name!r}; have {self.column_names}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    # -- construction -----------------------------------------------------------

    @classmethod
    def concat(cls, parts: Sequence["MeasurementDataset"]) -> "MeasurementDataset":
        """Stack datasets with identical columns."""
        if not parts:
            raise DatasetError("cannot concat zero datasets")
        names = parts[0].column_names
        for p in parts[1:]:
            if p.column_names != names:
                raise DatasetError(
                    f"column mismatch: {names} vs {p.column_names}"
                )
        return cls({
            name: np.concatenate([p.column(name) for p in parts])
            for name in names
        })

    def with_column(self, name: str, values: Any) -> "MeasurementDataset":
        """A copy with column ``name`` added or replaced."""
        arr = _as_column(values)
        if arr.shape[0] != self._n:
            raise DatasetError(
                f"new column {name!r} has {arr.shape[0]} rows, expected {self._n}"
            )
        data = dict(self._data)
        data[name] = arr
        return MeasurementDataset(data)

    # -- selection ---------------------------------------------------------------

    def filter(self, mask: np.ndarray) -> "MeasurementDataset":
        """Rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._n,):
            raise DatasetError(
                f"mask must have shape ({self._n},), got {mask.shape}"
            )
        return MeasurementDataset({k: v[mask] for k, v in self._data.items()})

    def where(self, **equals: Any) -> "MeasurementDataset":
        """Rows where every ``column == value`` condition holds."""
        mask = np.ones(self._n, dtype=bool)
        for name, value in equals.items():
            mask &= self.column(name) == value
        return self.filter(mask)

    def sort_by(self, name: str) -> "MeasurementDataset":
        """Rows sorted ascending by column ``name`` (stable)."""
        order = np.argsort(self.column(name), kind="stable")
        return MeasurementDataset({k: v[order] for k, v in self._data.items()})

    # -- grouping ---------------------------------------------------------------

    def unique(self, name: str) -> np.ndarray:
        """Sorted unique values of a column."""
        return np.unique(self.column(name))

    def groupby(self, name: str) -> Iterator[tuple[Any, "MeasurementDataset"]]:
        """Iterate ``(value, subset)`` over groups of column ``name``."""
        col = self.column(name)
        for value in np.unique(col):
            yield value, self.filter(col == value)

    def group_reduce(
        self,
        key: str,
        value: str,
        reducer: Callable[[np.ndarray], float] = np.median,
    ) -> dict[Any, float]:
        """Reduce one column per group, e.g. median power per cabinet."""
        out: dict[Any, float] = {}
        col = self.column(key)
        values = self.column(value)
        for group in np.unique(col):
            out[group] = float(reducer(values[col == group]))
        return out

    def group_index(self, name: str) -> GroupIndex:
        """The rows grouped by column ``name`` (computed once, then reused)."""
        key = ("groups", name)
        if key not in self._memo:
            self._memo[key] = GroupIndex.of(self.column(name))
        return self._memo[key]

    def per_gpu_median(self, value: str, gpu_key: str = "gpu_index") -> "MeasurementDataset":
        """Collapse runs to one row per GPU with the median of ``value``.

        The paper's box plots use per-GPU medians to suppress one-off
        transients (Section III).  All identity columns that are constant
        within a GPU group are carried through; varying ones are dropped.
        The result is computed once per ``(value, gpu_key)`` and reused.
        """
        key = ("median", value, gpu_key)
        if key not in self._memo:
            out = {
                name: col for name, col in self._constant(gpu_key).items()
                if name != value
            }
            out[value] = self.group_index(gpu_key).medians(self.column(value))
            self._memo[key] = MeasurementDataset(out)
        return self._memo[key]

    def _constant(self, gpu_key: str) -> dict[str, np.ndarray]:
        """One row per group of every column constant within every group.

        Computed once per key and shared by every metric's medians.
        """
        key = ("constant", gpu_key)
        if key not in self._memo:
            groups = self.group_index(gpu_key)
            first = groups.first
            constant: dict[str, np.ndarray] = {}
            for name, col in self._data.items():
                representative = col[first]
                if bool(np.all(col == representative[groups.inverse])):
                    constant[name] = representative
            self._memo[key] = constant
        return self._memo[key]

    # -- export ---------------------------------------------------------------

    def to_rows(self) -> list[dict[str, Any]]:
        """Materialize as a list of row dicts (small datasets only)."""
        names = self.column_names
        return [
            {name: self._data[name][i] for name in names}
            for i in range(self._n)
        ]

    def head(self, n: int = 5) -> "MeasurementDataset":
        """The first ``n`` rows."""
        return MeasurementDataset({k: v[:n] for k, v in self._data.items()})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MeasurementDataset(rows={self._n}, "
            f"columns={self.column_names})"
        )
