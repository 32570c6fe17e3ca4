"""Transverse (x-axis) alignment of B-scans by matching mean-intensity projections.

Each B-scan collapses to a 1D strip: the mean intensity per A-scan, taken
only between the first and last surfaces when a layer mask is available
(the background outside the retina is mostly noise and replicate fill, so
excluding it sharpens the match).  Adjacent strips are registered by the
integer shift minimizing their overlap-normalized mean squared error, the
pairwise shifts are chained into per-B-scan estimates, and the most common
estimate is mapped to zero (micro-saccades leave most B-scans unmoved, so
the mode is the natural anchor).
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import (
    DisplacementField,
    EmptyBandWarning,
    OctVolume,
    SurfaceSet,
    most_frequent_int,
    search_order,
)
from .errors import ConfigError, DimensionError
from .synth import shift_surfaces_transverse, shift_transverse


def mean_projection(volume: OctVolume, surfaces: SurfaceSet | None) -> np.ndarray:
    """Per-B-scan strip of mean intensities, shape (N_B, N_A).

    With surfaces, the mean runs over integer rows r with
    S_first(b,a) <= r <= S_last(b,a); an empty band yields 0 and a warning.
    Without surfaces the whole column is averaged.
    """
    data = volume.data.astype(np.float64)
    if surfaces is None or surfaces.n_surfaces == 0:
        return data.mean(axis=2)
    if surfaces.n_b != volume.n_b or surfaces.n_a != volume.n_a:
        raise DimensionError("surfaces and volume disagree on (N_B, N_A)")
    surfaces.require_ordered()
    n_r = volume.n_r
    lo = np.ceil(surfaces.positions[0]).astype(np.int64)
    hi = np.floor(surfaces.positions[-1]).astype(np.int64)
    lo_c = np.clip(lo, 1, n_r)
    hi_c = np.clip(hi, 0, n_r)
    count = hi_c - lo_c + 1
    csum = np.concatenate(
        [np.zeros((*data.shape[:2], 1)), np.cumsum(data, axis=2)], axis=2
    )
    sums = (
        np.take_along_axis(csum, hi_c[..., None], axis=2)
        - np.take_along_axis(csum, (lo_c - 1)[..., None], axis=2)
    )[..., 0]
    empty = count < 1
    if empty.any():
        warnings.warn(
            f"{int(empty.sum())} A-scans had an empty retina band; projected as 0",
            EmptyBandWarning,
            stacklevel=2,
        )
    out = np.zeros_like(sums)
    np.divide(sums, count, out=out, where=~empty)
    return out


def projection_mse(proj_a: np.ndarray, proj_b: np.ndarray, t: int) -> float:
    """MSE between strip a and strip b shifted by +t columns, over the overlap."""
    n_a = proj_a.shape[0]
    if t >= 0:
        x, y = proj_a[t:], proj_b[: n_a - t]
    else:
        x, y = proj_a[: n_a + t], proj_b[-t:]
    if x.size == 0:
        return np.inf
    diff = x - y
    return float((diff * diff).mean())


def best_shift(proj_a: np.ndarray, proj_b: np.ndarray, radius: int) -> int:
    """Integer shift of strip b that best matches strip a; ties prefer small |t|."""
    best_t, best_v = 0, np.inf
    for t in search_order(radius):
        v = projection_mse(proj_a, proj_b, t)
        if v < best_v:
            best_v, best_t = v, t
    return best_t


def align_transverse(volume: OctVolume, surfaces: SurfaceSet | None,
                     radius: int = 15, layer_mask: bool = True) -> DisplacementField:
    """Estimate per-B-scan integer transverse motion from projection matching.

    Returns the estimated content motion (same sign convention as the
    simulator): correcting means shifting content by the negated estimate.
    """
    if volume.n_b < 2:
        raise DimensionError("need at least two B-scans")
    if radius < 1:
        raise ConfigError(f"search radius must be >= 1, got {radius}")
    if volume.n_a <= radius:
        raise ConfigError(
            f"N_A={volume.n_a} must exceed the search radius {radius}"
        )
    proj = mean_projection(volume, surfaces if layer_mask else None)
    est = np.zeros(volume.n_b, dtype=np.int64)
    for b in range(volume.n_b - 1):
        t = best_shift(proj[b], proj[b + 1], radius)
        est[b + 1] = est[b] - t
    est -= most_frequent_int(est)
    return DisplacementField(axial=np.zeros(volume.n_b), transverse=est)


def apply_transverse_correction(volume: OctVolume, surfaces, disp: DisplacementField):
    """Shift content back by the estimated motion (columns, edge replicate)."""
    data = shift_transverse(volume.data.astype(np.float64), -disp.transverse)
    corrected = volume.with_data(data)
    if surfaces is None:
        return corrected, None
    pos = shift_surfaces_transverse(surfaces.positions, -disp.transverse)
    return corrected, surfaces.with_positions(pos)
