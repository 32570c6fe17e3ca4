"""Shared data model: volumes, surfaces, distributions, labels, displacements.

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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    LabelMonotoneError,
    SurfaceOrderError,
    ValidationError,
)


class SurfaceClampWarning(UserWarning):
    """A label column never reached a surface; its position was clamped to R."""


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
    """Integer candidates 0, -1, 1, -2, 2, ... up to +/-radius.

    Searches that keep the first strict improvement therefore resolve ties
    toward the smaller |shift|, and toward the negative one at equal |shift|.
    """
    yield 0
    for k in range(1, radius + 1):
        yield -k
        yield k


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
        if not np.all(np.isfinite(data)):
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
    names: tuple[str, ...] = ()

    def __post_init__(self):
        pos = np.ascontiguousarray(self.positions, dtype=np.float64)
        if pos.ndim != 3:
            raise DimensionError(f"surface positions must be 3D (l, b, a), got {pos.shape}")
        if pos.size and (not np.all(np.isfinite(pos)) or pos.min() < 1.0):
            raise ValidationError("surface positions must be finite and >= 1 (rows are 1-based)")
        names = tuple(self.names) if self.names else tuple(
            f"surface_{i + 1}" for i in range(pos.shape[0])
        )
        if len(names) != pos.shape[0]:
            raise DimensionError(
                f"{len(names)} names for {pos.shape[0]} surfaces"
            )
        object.__setattr__(self, "positions", _freeze(pos))
        object.__setattr__(self, "names", names)

    @property
    def n_surfaces(self) -> int:
        return self.positions.shape[0]

    @property
    def n_b(self) -> int:
        return self.positions.shape[1]

    @property
    def n_a(self) -> int:
        return self.positions.shape[2]

    def is_ordered(self) -> bool:
        """True when surface l never lies below surface l+1 anywhere."""
        if self.n_surfaces < 2:
            return True
        return bool(np.all(self.positions[1:] >= self.positions[:-1]))

    def require_ordered(self) -> None:
        """Raise SurfaceOrderError naming the first offending (b, a, l)."""
        if self.n_surfaces < 2:
            return
        bad = self.positions[1:] < self.positions[:-1]  # (L-1, N_B, N_A)
        if not bad.any():
            return
        # first offender in (b, a, l) scan order, reported 1-based
        b, a, l = np.argwhere(bad.transpose(1, 2, 0))[0]
        raise SurfaceOrderError(
            f"surfaces out of order at b={b + 1}, a={a + 1}: "
            f"surface {l + 1} is below surface {l + 2}"
        )

    def with_positions(self, positions: np.ndarray) -> "SurfaceSet":
        return SurfaceSet(positions=positions, names=self.names)


def as_positions(surfaces) -> np.ndarray:
    """Positions of a SurfaceSet, or any array-like as float64, unreshaped."""
    if isinstance(surfaces, SurfaceSet):
        return surfaces.positions
    return np.asarray(surfaces, dtype=np.float64)


@dataclass(frozen=True)
class SurfaceDistribution:
    """Per-A-scan probability vector over the R rows for one surface."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(self.probs, dtype=np.float64)
        if p.ndim != 3:
            raise DimensionError(f"distribution must be 3D (b, a, r), got {p.shape}")
        if p.size == 0:
            raise ValidationError("distribution is empty")
        if not np.all(np.isfinite(p)) or p.min() < 0:
            raise ValidationError("probabilities must be finite and nonnegative")
        sums = p.sum(axis=-1)
        if np.abs(sums - 1.0).max() > 1e-6:
            raise ValidationError(
                "each per-A-scan probability vector must sum to 1 within 1e-6, "
                f"worst |sum-1| = {np.abs(sums - 1.0).max():.3g}"
            )
        object.__setattr__(self, "probs", _freeze(p))

    @property
    def n_rows(self) -> int:
        return self.probs.shape[2]


@dataclass(frozen=True)
class DisplacementField:
    """Per-B-scan motion estimate: real axial shift, integer transverse shift."""

    axial: np.ndarray
    transverse: np.ndarray

    def __post_init__(self):
        ax = np.ascontiguousarray(self.axial, dtype=np.float64)
        tr_raw = np.asarray(self.transverse)
        if ax.ndim != 1 or tr_raw.ndim != 1:
            raise DimensionError("axial and transverse must be 1D vectors")
        if ax.shape != tr_raw.shape:
            raise DimensionError(
                f"axial length {ax.shape[0]} vs transverse length {tr_raw.shape[0]}"
            )
        if not np.all(np.isfinite(ax)):
            raise ValidationError("axial displacements must be finite")
        if not np.all(np.isfinite(tr_raw.astype(np.float64))):
            raise ValidationError("transverse displacements must be finite")
        if np.any(tr_raw.astype(np.float64) != np.round(tr_raw.astype(np.float64))):
            raise ValidationError("transverse displacements must be whole pixels")
        tr = np.ascontiguousarray(np.round(tr_raw.astype(np.float64)), dtype=np.int64)
        object.__setattr__(self, "axial", _freeze(ax))
        object.__setattr__(self, "transverse", _freeze(tr))

    @property
    def n_b(self) -> int:
        return self.axial.shape[0]

    @classmethod
    def zeros(cls, n_b: int) -> "DisplacementField":
        return cls(axial=np.zeros(n_b), transverse=np.zeros(n_b, dtype=np.int64))


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
        if lab.shape[2] >= 2:
            drops = np.diff(lab, axis=2) < 0
            if drops.any():
                b, a = np.argwhere(drops.any(axis=2))[0]
                raise LabelMonotoneError(
                    f"labels decrease along the A-scan at b={b + 1}, a={a + 1}"
                )
        object.__setattr__(self, "labels", _freeze(lab))
        object.__setattr__(self, "n_surfaces", int(self.n_surfaces))


def surfaces_to_labels(surfaces: SurfaceSet, n_rows: int) -> LabelMap:
    """Convert ordered surfaces to pixel labels.

    Pixel (b, a, r) receives label l = number of surfaces at or above row r
    (positions compare with ``<=`` so a surface exactly on a row claims it).
    """
    surfaces.require_ordered()
    pos = surfaces.positions
    if pos.size and pos.max() > n_rows:
        raise ValidationError(
            f"surface position {pos.max():.3f} exceeds row count {n_rows}"
        )
    rows = np.arange(1, n_rows + 1, dtype=np.float64)
    if surfaces.n_surfaces == 0:
        n_b, n_a = pos.shape[1], pos.shape[2]
        return LabelMap(np.zeros((n_b, n_a, n_rows), dtype=np.int16), n_surfaces=0)
    labels = (pos[..., None] <= rows).sum(axis=0)
    return LabelMap(labels.astype(np.int16), n_surfaces=surfaces.n_surfaces)


def labels_to_surfaces(label_map: LabelMap) -> SurfaceSet:
    """Recover surface positions by counting label pixels per A-scan.

    Surface l sits at 1 + (number of rows with label < l).  An A-scan whose
    labels never reach l would place the surface at R + 1; it is clamped to
    R and a SurfaceClampWarning reports how many columns were affected.
    """
    lab = label_map.labels
    n_b, n_a, n_rows = lab.shape
    n_s = label_map.n_surfaces
    if n_s == 0:
        return SurfaceSet(np.zeros((0, n_b, n_a)))
    ls = np.arange(1, n_s + 1, dtype=np.int16)[:, None, None, None]
    counts = (lab[None, ...] < ls).sum(axis=3)  # (L, N_B, N_A)
    positions = 1.0 + counts.astype(np.float64)
    clamped = positions > n_rows
    n_clamped = int(clamped.sum())
    if n_clamped:
        positions = np.where(clamped, float(n_rows), positions)
        warnings.warn(
            f"{n_clamped} surface positions clamped to R={n_rows} "
            "(label column never reached the surface)",
            SurfaceClampWarning,
            stacklevel=2,
        )
    return SurfaceSet(positions)
