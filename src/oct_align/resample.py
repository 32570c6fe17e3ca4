"""Axial resampling of B-scans by per-B-scan or per-A-scan displacements.

Sampling convention, fixed project-wide: the output at row r takes its
value from the input at row r + d, linearly interpolated between the two
neighboring rows.  Out-of-range source rows clamp to the nearest valid row
(replicate fill), which avoids injecting artificial dark edges into the
near-constant background above and below the retina.

Under this convention a B-scan whose content was pushed toward larger rows
by d pixels is restored by resampling with that same d.  Motion correction
(one d per B-scan) and flattening (one d per A-scan) share one kernel.
"""

from __future__ import annotations

import numpy as np

from .core import OctVolume
from .errors import DimensionError, ValidationError


def _interp_rows(img: np.ndarray, shift) -> np.ndarray:
    """Resample one B-scan (N_A, R) along rows, in float64, at ``shift``: a
    scalar, or an (N_A, 1) column with one offset per A-scan.

    Rows are gathered by flat index (``np.take``), which is several times
    faster than ``np.take_along_axis``'s two-array index on these shapes.
    """
    n_a, n_r = img.shape
    pos = np.arange(n_r, dtype=np.float64) + np.reshape(shift, (-1, 1))
    lo = np.floor(pos).astype(np.int64)
    w = pos - lo
    start = np.arange(0, n_a * n_r, n_r)[:, None]  # flat index of each A-scan's row 0
    return (np.take(img, np.minimum(np.maximum(lo, 0), n_r - 1) + start) * (1.0 - w)
            + np.take(img, np.minimum(np.maximum(lo + 1, 0), n_r - 1) + start) * w)


def resample_axial(volume, shifts):
    """Shift every B-scan along the row axis by ``shifts``: shape (N_B,), one
    per B-scan, or (N_B, N_A), one per A-scan.

    Accepts an OctVolume (returns an OctVolume) or a plain (N_B, N_A, R)
    array (returns a float64 array).  Each B-scan is interpolated in float64
    straight into the output; one whose shifts are all zero is copied.
    """
    is_volume = isinstance(volume, OctVolume)
    data = volume.data if is_volume else np.asarray(volume)
    if data.ndim != 3:
        raise DimensionError(f"expected (b, a, r) data, got shape {data.shape}")
    n_b = data.shape[0]
    d = np.asarray(shifts, dtype=np.float64)
    if d.shape not in ((n_b,), data.shape[:2]):
        raise DimensionError(f"shifts of shape {d.shape} fit neither (N_B,) nor (N_B, N_A) "
                             f"of the {data.shape} volume")
    if not np.all(np.isfinite(d)):
        raise ValidationError("axial displacements must be finite")
    cols = d.reshape(n_b, -1, 1)
    out = np.empty_like(data) if is_volume else np.empty(data.shape)
    for b in range(n_b):
        out[b] = _interp_rows(data[b], cols[b]) if cols[b].any() else data[b]
    return volume.with_data(out) if is_volume else out
