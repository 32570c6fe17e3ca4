"""Axial resampling of B-scans by per-B-scan (or per-A-scan) displacements.

Sampling convention, fixed project-wide: the output at row r takes its
value from the input at row r + d, linearly interpolated between the two
neighboring rows.  Out-of-range source rows clamp to the nearest valid row
(replicate fill), which avoids injecting artificial dark edges into the
near-constant background above and below the retina.

Under this convention a B-scan whose content was pushed toward larger rows
by d pixels is restored by resampling with that same d.  The per-B-scan
(``resample_axial``) and per-A-scan (``resample_columns``) variants share
one floor/clip/weight kernel.
"""

from __future__ import annotations

import numpy as np

from .core import OctVolume
from .errors import DimensionError, ValidationError


def _lerp_index(pos: np.ndarray, n_r: int):
    """Bracketing rows and upper weight for linear interpolation at ``pos``.

    Rows outside [0, n_r - 1] clamp to the nearest valid row (replicate fill).
    """
    lo = np.floor(pos).astype(np.int64)
    return np.clip(lo, 0, n_r - 1), np.clip(lo + 1, 0, n_r - 1), pos - lo


def _interp_rows(img: np.ndarray, shift: float) -> np.ndarray:
    """Resample one B-scan (N_A, R) along rows at a scalar offset."""
    n_r = img.shape[-1]
    lo, hi, w = _lerp_index(np.arange(n_r, dtype=np.float64) + float(shift), n_r)
    return img[..., lo] * (1.0 - w) + img[..., hi] * w


def resample_axial(volume, axial):
    """Shift every B-scan along the row axis by its own displacement.

    Accepts an OctVolume (returns an OctVolume) or a plain (N_B, N_A, R)
    array (returns a float64 array).  ``axial`` must have length N_B.
    """
    is_volume = isinstance(volume, OctVolume)
    data = volume.data if is_volume else np.asarray(volume)
    if data.ndim != 3:
        raise DimensionError(f"expected (b, a, r) data, got shape {data.shape}")
    d = np.asarray(axial, dtype=np.float64)
    if d.ndim != 1 or d.shape[0] != data.shape[0]:
        raise DimensionError(
            f"displacement length {d.shape} does not match N_B={data.shape[0]}"
        )
    if not np.all(np.isfinite(d)):
        raise ValidationError("axial displacements must be finite")
    if not np.any(d):
        out = data.copy()
        return volume.with_data(out) if is_volume else out.astype(np.float64)
    work = data.astype(np.float64)
    out = np.empty_like(work)
    for b in range(work.shape[0]):
        out[b] = work[b] if d[b] == 0.0 else _interp_rows(work[b], d[b])
    return volume.with_data(out) if is_volume else out


def resample_columns(data: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Per-A-scan variant: ``shifts`` has shape (N_B, N_A), one offset per column."""
    data = np.asarray(data, dtype=np.float64)
    shifts = np.asarray(shifts, dtype=np.float64)
    if data.ndim != 3 or shifts.shape != data.shape[:2]:
        raise DimensionError(
            f"shift map {shifts.shape} does not match volume columns {data.shape[:2]}"
        )
    n_r = data.shape[2]
    lo, hi, w = _lerp_index(np.arange(n_r, dtype=np.float64) + shifts[..., None], n_r)
    return (
        np.take_along_axis(data, lo, axis=2) * (1.0 - w)
        + np.take_along_axis(data, hi, axis=2) * w
    )
