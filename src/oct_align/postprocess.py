"""Surface ordering fix, flattening to the estimated Bruch's membrane, cropping."""

from __future__ import annotations

import numpy as np

from .core import OctVolume, SurfaceSet
from .errors import ValidationError
from .resample import resample_axial

# Gaussian smoothing along rows, and median filter over (b, a), of the BM estimate
BM_SIGMA = 2.0
BM_MEDIAN_SIZE = 5
# rows each side that gaussian_filter1d reads at BM_SIGMA (its default truncate=4)
_BM_RADIUS = int(4 * BM_SIGMA + 0.5)


def fix_surface_order(surfaces: SurfaceSet) -> SurfaceSet:
    """Sort each A-scan's surface positions so every A-scan is ordered.

    The multiset of values in each A-scan is preserved, and applying the
    fix twice changes nothing.  Public for the benchmark's ``eval_io``
    workload, which fixes its predictions with it.
    """
    return SurfaceSet(np.sort(surfaces.positions, axis=0))


def estimate_bm_rows(volume: OctVolume) -> np.ndarray:
    """Estimate the Bruch's-membrane row per A-scan (1-based, shape (N_B, N_A)).

    Each A-scan is Gaussian-smoothed along rows; the BM estimate is the row
    of the most negative axial gradient in the lower half (the deepest
    bright-to-dark transition), median-filtered over (b, a) to knock out
    vessel-shadow outliers.

    scipy.ndimage is imported here, its only use, so that no other command
    pays for loading it.  Only the rows the gradient reads are smoothed:
    the gradient from row ``half = N_R // 2`` on reads smoothed rows from
    ``half - 1``, each of which reads input rows within ``_BM_RADIUS``, so
    smoothing starts that many rows above ``half - 1``.  The smoothing, the
    gradient and the argmin run on one (N_A, R - lo) float64 B-scan block
    at a time, not on the whole volume.  Each of them works along rows, on
    every A-scan by itself, so each value is computed from the same inputs
    by the same code as on the whole volume, and the rows are bit-identical.
    """
    from scipy.ndimage import gaussian_filter1d, median_filter

    half = volume.n_r // 2
    lo = max(half - 1 - _BM_RADIUS, 0)
    rows0 = np.empty((volume.n_b, volume.n_a))
    smoothed = np.empty((volume.n_a, volume.n_r - lo))
    for b, plane in enumerate(volume.data):
        gaussian_filter1d(plane[:, lo:], sigma=BM_SIGMA, axis=1, mode="nearest",
                          output=smoothed)
        grad = np.gradient(smoothed, axis=1)
        rows0[b] = half + np.argmin(grad[:, half - lo:], axis=1)
    rows = median_filter(rows0, size=BM_MEDIAN_SIZE, mode="nearest")
    return rows + 1.0


def flatten_to_bm(volume: OctVolume):
    """Shift every A-scan so the estimated BM lands on row round(0.75 * R).

    Returns the flattened volume and the (N_B, N_A) shift map, one shift
    per A-scan, that ``resample_axial`` applied.  ``cmd_preprocess`` drops
    the map; it is returned for the benchmark's replay
    (``perfbench/replay.py``), which unpacks it.
    """
    shifts = estimate_bm_rows(volume) - round(0.75 * volume.n_r)
    return resample_axial(volume, shifts), shifts


def crop_rows(volume: OctVolume, surfaces, row_range: tuple[int, int]):
    """Keep rows lo..hi (1-based, inclusive) and re-base surface positions.

    Every surface must lie inside the kept range; offenders are listed.
    """
    lo, hi = (int(x) for x in row_range)
    n_r = volume.n_r
    if not 1 <= lo <= hi <= n_r:
        raise ValidationError(f"crop range {lo}:{hi} outside [1, {n_r}]")
    if surfaces is not None:
        pos = surfaces.positions
        outside = (pos < lo) | (pos > hi)
        if outside.any():
            offenders = np.argwhere(outside)[:5]
            where = ", ".join(
                f"(surface {l + 1}, b={b + 1}, a={a + 1}, r={pos[l, b, a]:.2f})"
                for l, b, a in offenders
            )
            raise ValidationError(
                f"{int(outside.sum())} surface positions outside crop {lo}:{hi}: {where}"
            )
    cropped = volume.with_data(volume.data[:, :, lo - 1:hi])
    if surfaces is None:
        return cropped, None
    return cropped, SurfaceSet(surfaces.positions - (lo - 1))

