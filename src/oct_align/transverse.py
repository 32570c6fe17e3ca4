"""Transverse (x-axis) alignment of B-scans by matching mean-intensity projections.

Each B-scan collapses to a 1D strip: the mean intensity per A-scan, taken
only between the first and last surfaces when a layer mask is available
(the background outside the retina is mostly noise and replicate fill, so
excluding it sharpens the match).  Every integer shift of every adjacent
pair is scored at once by overlap-normalized mean squared error and picked
by the axial template chain's rule (``core.first_best``), the pairwise
shifts are chained into per-B-scan estimates, and the most common estimate
is mapped to zero (micro-saccades leave most B-scans unmoved, so the mode is
the natural anchor).
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    DisplacementField,
    EmptyBandWarning,
    OctVolume,
    SurfaceSet,
    first_best,
    most_frequent_int,
)
from .errors import ConfigError, DimensionError
from .synth import MAX_MOTION_PX

TRANSVERSE_RADIUS = 2 * int(MAX_MOTION_PX)  # adjacent motion groups can differ by two amplitudes


def mean_projection(volume: OctVolume, surfaces: SurfaceSet | None) -> np.ndarray:
    """Per-B-scan strip of mean intensities, shape (N_B, N_A).

    With surfaces, the mean runs over integer rows r with
    S_first(b,a) <= r <= S_last(b,a); an empty band yields 0 and a warning.
    Without surfaces the whole column is averaged.
    """
    if surfaces is None or surfaces.n_surfaces == 0:
        return volume.data.mean(axis=2, dtype=np.float64)
    if surfaces.n_b != volume.n_b or surfaces.n_a != volume.n_a:
        raise DimensionError("surfaces and volume disagree on (N_B, N_A)")
    surfaces.require_ordered()
    rows = np.arange(1, volume.n_r + 1)
    band = ((rows >= surfaces.positions[0][..., None])
            & (rows <= surfaces.positions[-1][..., None]))
    count = band.sum(axis=2)
    # summed in float64 straight from the stored values: no float64 copy
    sums = np.add.reduce(volume.data, axis=2, dtype=np.float64, where=band)
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


def _pair_mse(proj: np.ndarray, radius: int) -> np.ndarray:
    """Overlap-normalized MSE of every adjacent strip pair at every shift, (N_B - 1,
    2 * radius + 1): entry [b, radius + t] compares strip b with strip b + 1
    shifted by +t columns over their N_A - |t| > 0 overlapping columns."""
    n_a, pad = proj.shape[1], ((0, 0), (radius, radius))
    # [b, radius + t, j]: column j + t of strip b, and 1 where that is on the strip
    shifted = sliding_window_view(np.pad(proj[:-1], pad), n_a, axis=1)
    overlap = sliding_window_view(np.pad(np.ones((1, n_a)), pad), n_a, axis=1)
    diff = shifted - overlap * proj[1:, None, :]
    return np.square(diff, out=diff).sum(axis=2) / overlap.sum(axis=2)


def align_transverse(volume: OctVolume, surfaces: SurfaceSet | None,
                     radius: int = TRANSVERSE_RADIUS,
                     layer_mask: bool = True) -> DisplacementField:
    """Estimate per-B-scan integer transverse motion from projection matching.

    Returns the estimated content motion (same sign convention as the
    simulator): correcting means shifting content by the negated estimate.
    """
    if not isinstance(volume, OctVolume):
        raise DimensionError("align_transverse expects an OctVolume")
    if radius < 1:
        raise ConfigError(f"search radius must be >= 1, got {radius}")
    if volume.n_a <= radius:
        raise ConfigError(
            f"N_A={volume.n_a} must exceed the search radius {radius}"
        )
    proj = mean_projection(volume, surfaces if layer_mask else None)
    steps = first_best(-_pair_mse(proj, radius), radius)
    est = np.concatenate(([0], -np.cumsum(steps)))
    est -= most_frequent_int(est)
    return DisplacementField(axial=np.zeros(volume.n_b), transverse=est)
