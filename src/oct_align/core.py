"""Shared data model: volumes, surfaces, labels, displacements.

Conventions used package-wide:

* Volume arrays are indexed ``[b, a, r]``: B-scan, A-scan, row.  Rows run
  along the axial (depth) direction.
* Surface positions are 1-based row indices in ``[1, R]`` and may be
  fractional (subpixel).
* Per-B-scan axial displacements are in pixels (real valued); transverse
  displacements are whole A-scan columns (integers).

All container types are immutable after construction (the wrapped arrays
are marked read-only), so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    LabelMonotoneError,
    SurfaceOrderError,
    ValidationError,
)


class EmptyBandWarning(UserWarning):
    """An A-scan had an empty row band where a mean was requested."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def most_frequent_int(values) -> int:
    """Mode of an integer vector; ties resolve to the value occurring first.

    The tie-break looks at positions, not magnitudes, so it is invariant
    under adding a constant to the whole vector; two vectors that differ by
    a constant therefore center on the same element.
    """
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0:
        raise ValidationError("cannot take the mode of an empty vector")
    vals, counts = np.unique(arr, return_counts=True)
    cand = vals[counts == counts.max()]
    first = [int(np.argmax(arr == v)) for v in cand]
    return int(cand[int(np.argmin(first))])


def search_order(radius: int):
    """Integer candidates 0, -1, 1, -2, 2, ... up to +/-radius: ``first_best``
    keeps the first best in this order, so ties resolve toward the smaller
    |shift|, and toward the negative one at equal |shift|."""
    yield 0
    for k in range(1, radius + 1):
        yield -k
        yield k


def first_best(scores: np.ndarray, radius: int) -> np.ndarray:
    """Shift t in -radius..radius of the first highest score in ``search_order``
    along the last axis, whose entry radius + t scores shift t.  A search for
    the lowest cost passes the negated costs, which tie exactly where they do."""
    order = np.fromiter(search_order(radius), dtype=np.int64)
    return order[np.argmax(scores[..., radius + order], axis=-1)]


@dataclass(frozen=True)
class OctVolume:
    """A 3D OCT intensity grid with physical voxel spacing.

    ``data`` has shape (N_B, N_A, R) and is stored as float32.  ``spacing``
    is micrometers per voxel along the row, A-scan, and B-scan axes, in
    that order.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (3.24, 6.7, 67.0)

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise DimensionError(f"volume data must be 3D (b, a, r), got shape {data.shape}")
        n_b, n_a, n_r = data.shape
        if n_b < 2 or n_a < 1 or n_r < 2:
            raise ValidationError(
                f"volume dims too small: {data.shape} (need N_B >= 2, N_A >= 1, R >= 2)"
            )
        for plane in data:  # one (N_A, R) mask at a time
            if not np.isfinite(plane).all():
                raise ValidationError("volume intensities must all be finite")
        spacing = tuple(float(x) for x in self.spacing)
        if len(spacing) != 3 or any(not np.isfinite(x) or x <= 0 for x in spacing):
            raise ValidationError(f"spacing must be three positive values, got {self.spacing!r}")
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "spacing", spacing)

    @property
    def n_b(self) -> int:
        return self.data.shape[0]

    @property
    def n_a(self) -> int:
        return self.data.shape[1]

    @property
    def n_r(self) -> int:
        return self.data.shape[2]

    def with_data(self, data: np.ndarray) -> "OctVolume":
        """New volume with the same spacing and replaced intensities."""
        return OctVolume(data=data, spacing=self.spacing)


@dataclass(frozen=True)
class SurfaceSet:
    """L layer surfaces, each a row position per (B-scan, A-scan).

    ``positions`` has shape (L, N_B, N_A) with 1-based, possibly fractional
    row values.  Ordering (surface l above surface l+1) is a checkable
    predicate, not a construction requirement: predictions may be unordered
    until fixed by postprocessing.
    """

    positions: np.ndarray

    def __post_init__(self):
        pos = np.ascontiguousarray(self.positions, dtype=np.float64)
        if pos.ndim != 3:
            raise DimensionError(f"surface positions must be 3D (l, b, a), got {pos.shape}")
        if pos.size and (not np.all(np.isfinite(pos)) or pos.min() < 1.0):
            raise ValidationError("surface positions must be finite and >= 1 (rows are 1-based)")
        object.__setattr__(self, "positions", _freeze(pos))

    @property
    def n_surfaces(self) -> int:
        return self.positions.shape[0]

    @property
    def n_b(self) -> int:
        return self.positions.shape[1]

    @property
    def n_a(self) -> int:
        return self.positions.shape[2]

    def require_ordered(self) -> None:
        """Raise SurfaceOrderError naming the first offending (b, a, l)."""
        bad = self.positions[1:] < self.positions[:-1]  # (L-1, N_B, N_A)
        if not bad.any():
            return
        # first offender in (b, a, l) scan order, reported 1-based
        b, a, l = np.argwhere(bad.transpose(1, 2, 0))[0]
        raise SurfaceOrderError(
            f"surfaces out of order at b={b + 1}, a={a + 1}: "
            f"surface {l + 1} is below surface {l + 2}"
        )


def as_positions(surfaces) -> np.ndarray:
    """Positions of a SurfaceSet, or any array-like as float64, unreshaped."""
    if isinstance(surfaces, SurfaceSet):
        return surfaces.positions
    return np.asarray(surfaces, dtype=np.float64)


@dataclass(frozen=True)
class DisplacementField:
    """Per-B-scan motion estimate: real axial shift, integer transverse shift."""

    axial: np.ndarray
    transverse: np.ndarray

    def __post_init__(self):
        ax = np.ascontiguousarray(self.axial, dtype=np.float64)
        tr_raw = np.asarray(self.transverse, dtype=np.float64)
        if ax.ndim != 1 or tr_raw.ndim != 1:
            raise DimensionError("axial and transverse must be 1D vectors")
        if ax.shape != tr_raw.shape:
            raise DimensionError(
                f"axial length {ax.shape[0]} vs transverse length {tr_raw.shape[0]}"
            )
        if not np.all(np.isfinite(ax)):
            raise ValidationError("axial displacements must be finite")
        if not np.all(np.abs(tr_raw) < 2.0 ** 63):  # nan fails too; before the int64 cast
            raise ValidationError("transverse displacements must be finite and "
                                  "below 2**63 in magnitude")
        if np.any(tr_raw != np.round(tr_raw)):
            raise ValidationError("transverse displacements must be whole pixels")
        tr = tr_raw.astype(np.int64)
        object.__setattr__(self, "axial", _freeze(ax))
        object.__setattr__(self, "transverse", _freeze(tr))

    @property
    def n_b(self) -> int:
        return self.axial.shape[0]


@dataclass(frozen=True)
class LabelMap:
    """Pixel-wise semantic labels: 0 above the first surface, l between
    surfaces l and l+1, n_surfaces below the last."""

    labels: np.ndarray
    n_surfaces: int

    def __post_init__(self):
        lab = np.ascontiguousarray(self.labels, dtype=np.int16)
        if lab.ndim != 3:
            raise DimensionError(f"labels must be 3D (b, a, r), got {lab.shape}")
        if int(self.n_surfaces) < 0:
            raise ValidationError("n_surfaces must be nonnegative")
        if lab.size and (lab.min() < 0 or lab.max() > int(self.n_surfaces)):
            raise ValidationError(
                f"labels must lie in [0, {self.n_surfaces}], got range "
                f"[{lab.min()}, {lab.max()}]"
            )
        for b, plane in enumerate(lab):  # one (N_A, R - 1) mask at a time
            drops = (plane[:, 1:] < plane[:, :-1]).any(axis=1)
            if drops.any():
                raise LabelMonotoneError(f"labels decrease along the A-scan at "
                                         f"b={b + 1}, a={int(np.argmax(drops)) + 1}")
        object.__setattr__(self, "labels", _freeze(lab))
        object.__setattr__(self, "n_surfaces", int(self.n_surfaces))


def _band_runs(pos: np.ndarray, n_rows: int) -> np.ndarray:
    """Row count of each label along every A-scan, shape (N_B, N_A, L+1).

    Surface l claims rows from 1-based row ceil(S_l) down, so label l runs
    from 0-based row ceil(S_{l-1}) - 1 to ceil(S_l) - 2; label 0 starts at
    row 0 and label L ends at row n_rows - 1.  Ordered surfaces within
    [1, n_rows] give runs >= 0 that sum to n_rows.
    """
    n_surf, n_b, n_a = pos.shape
    edges = np.empty((n_b, n_a, n_surf + 2), dtype=np.intp)
    edges[..., 0] = 0
    edges[..., 1:-1] = np.ceil(pos).transpose(1, 2, 0) - 1
    edges[..., -1] = n_rows
    return np.diff(edges, axis=2)


def surfaces_to_labels(surfaces: SurfaceSet, n_rows: int) -> LabelMap:
    """Convert ordered surfaces to pixel labels.

    Pixel (b, a, r) receives label l = number of surfaces at or above row r
    (positions compare with ``<=`` so a surface exactly on a row claims it).
    Each A-scan is L+1 label runs (``_band_runs``), so the labels are the
    label ids repeated over those runs in one ``np.repeat``.
    """
    surfaces.require_ordered()
    pos = surfaces.positions
    if pos.size and pos.max() > n_rows:
        raise ValidationError(
            f"surface position {pos.max():.3f} exceeds row count {n_rows}"
        )
    runs = _band_runs(pos, n_rows)
    ids = np.broadcast_to(np.arange(runs.shape[2], dtype=np.int16), runs.shape)
    labels = np.repeat(ids, runs.ravel()).reshape(*runs.shape[:2], n_rows)
    return LabelMap(labels, n_surfaces=surfaces.n_surfaces)
