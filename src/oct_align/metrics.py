"""Evaluation metrics: surface distances, adjacency statistics, motion recovery.

Surface distances score one volume: A-scan-wise quantities average within
it, and the report gives that volume's mean per surface and overall.
"""

from __future__ import annotations

import numpy as np

from .align import _centred, _centred_ncc
from .core import DisplacementField, OctVolume, SurfaceSet, as_positions, most_frequent_int
from .errors import DimensionError, ValidationError
from .io import _write_table


def _summary(per_surface, overall: float) -> dict:
    """The volume's ``per_surface`` (L,) and ``overall`` values in the
    ``eval`` report's layout."""
    per_surface = [float(v) for v in per_surface]
    return {
        "surfaces": [f"surface_{i + 1}" for i in range(len(per_surface))],
        "per_surface": {"mean_um": per_surface},
        "overall": {"mean_um": float(overall)},
    }


def mean_abs_distance(pred, gt, dz_um: float) -> dict:
    """Mean absolute surface distance of one volume in micrometers.

    ``pred`` and ``gt`` are SurfaceSets (or position arrays) of one shape;
    every position counts.  Returns the per-surface and overall means in
    the ``_summary`` layout.
    """
    pp, gg = as_positions(pred), as_positions(gt)
    if pp.shape != gg.shape:
        raise DimensionError(f"prediction {pp.shape} vs ground truth {gg.shape}")
    err = np.abs(pp - gg) * float(dz_um)
    return _summary([float(e.mean()) for e in err], float(err.mean()))


def _diagonal_dxx(n_a: int, dx: float):
    """The squared A-scan distances of an n_a x n_a grid, one row per diagonal.

    Row k holds offset s = k - (n_a - 1): entry i is (xs[i] - xs[i + s])**2,
    the (i, i + s) entry of the full matrix ``(xs[:, None] - xs[None, :])**2``
    bit for bit, and +inf where i + s falls off the grid.
    """
    xs = np.arange(1, n_a + 1, dtype=np.float64) * dx
    cols = np.arange(n_a) + np.arange(1 - n_a, n_a)[:, None]
    inside = (cols >= 0) & (cols < n_a)
    return np.where(inside, (xs - xs[np.clip(cols, 0, n_a - 1)]) ** 2, np.inf)


def hd95(pred, gt, spacing: tuple[float, float]) -> dict:
    """95th-percentile Hausdorff distance of one volume in micrometers.

    Each surface in each B-scan becomes a 2D point set {(a*dx, r*dz)}; the
    95th percentile of the pooled directed nearest-neighbor distances gives
    the per-B-scan value, and B-scans average to the surface's value, which
    surfaces average to the overall one; both in the ``_summary`` layout.
    ``spacing`` is (dz, dx).

    The nearest points are searched only on the diagonals j - i that can
    hold one.  With d2(i, j) = dxx[i, j] + (p_i*dz - g_j*dz)**2, the
    rounded sum is never below dxx[i, j] (the added square is >= 0 and
    rounding is monotone), and each directed minimum, of row i or of
    column i, is at most d2(i, i).  So with U the largest d2(i, i) of a
    surface over its B-scans, a diagonal whose every dxx entry exceeds U
    holds no minimum.  The kept diagonals are computed with the same float
    operations as the full matrix, so every minimum, and so every distance
    and percentile, is bit-identical to the full search; a NaN bound keeps
    every diagonal.
    """
    dz, dx = (float(x) for x in spacing)
    pp, gg = as_positions(pred), as_positions(gt)
    if pp.shape != gg.shape:
        raise DimensionError(f"prediction {pp.shape} vs ground truth {gg.shape}")
    n_l, n_b, n_a = pp.shape
    if n_a == 0:
        raise ValidationError("cannot compute hd95 of an empty surface")
    dxx = _diagonal_dxx(n_a, dx)
    dxx_min = dxx.min(axis=1)
    vals = np.empty(n_l)
    for l in range(n_l):
        pz, gz = pp[l] * dz, gg[l] * dz
        # U: the largest d2(i, i), as dxx is 0 there (-inf without B-scans)
        bound = np.max((pz - gz) ** 2, initial=-np.inf)
        fwd = np.full((n_b, n_a), np.inf)
        bwd = np.full((n_b, n_a), np.inf)
        for k in np.flatnonzero(~(dxx_min > bound)):
            s = int(k) + 1 - n_a
            lo, hi = max(0, -s), min(n_a, n_a - s)
            d2 = dxx[k, lo:hi] + (pz[:, lo:hi] - gz[:, lo + s:hi + s]) ** 2
            np.minimum(fwd[:, lo:hi], d2, out=fwd[:, lo:hi])
            np.minimum(bwd[:, lo + s:hi + s], d2, out=bwd[:, lo + s:hi + s])
        dist = np.sqrt(np.concatenate([fwd, bwd], axis=1))
        vals[l] = float(np.mean(np.percentile(dist, 95, axis=1)))
    return _summary(vals, vals.mean())


def adjacent_ncc(volume: OctVolume) -> float:
    """Mean global NCC between consecutive B-scans (1 for identical stacks).

    Each B-scan is centred once, and only the previous one is kept."""
    data = volume.data
    prev = _centred(data[0])
    vals = []
    for b in range(1, volume.n_b):
        cur = _centred(data[b])
        vals.append(_centred_ncc(*prev, *cur))
        prev = cur
    return float(np.mean(vals))


def connectivity_histogram(surfaces: SurfaceSet):
    """Histogram of |r_{b+1,a} - r_{b,a}| over all surfaces, pixel units.

    Bins are unit-width starting at 0 and covering every value, so the
    total mass is exactly L * (N_B - 1) * N_A.  Returns (counts, edges).
    """
    pos = as_positions(surfaces)
    if pos.shape[1] < 2:
        raise DimensionError("need at least two B-scans for connectivity")
    vals = np.abs(pos[:, 1:, :] - pos[:, :-1, :]).ravel()
    top = float(np.floor(vals.max())) + 1.0 if vals.size else 1.0
    return np.histogram(vals, bins=np.arange(0.0, top + 1.0))


def write_histogram_csv(path, counts, edges) -> None:
    table = np.column_stack([edges[:-1], edges[1:], counts])
    _write_table(path, "bin_lo,bin_hi,count", "%.17g,%.17g,%d\n", table)


def motion_error(est: DisplacementField, truth: DisplacementField) -> tuple[float, float]:
    """Mean absolute recovery error per axis after gauge normalization.

    ``truth`` is a DisplacementField; a ``synth.MotionSpec`` is one.  Axial
    vectors are mean-centered and transverse vectors mode-centered (both
    estimate and truth) before comparison, because the alignment objectives
    cannot see a global shift.  Returns (axial_px, transverse_px).
    """
    if not isinstance(truth, DisplacementField):
        raise ValidationError("truth must be a DisplacementField")
    if est.n_b != truth.n_b:
        raise DimensionError(f"estimate has N_B={est.n_b}, truth has {truth.n_b}")
    ax_err = np.abs(
        (est.axial - est.axial.mean()) - (truth.axial - truth.axial.mean())
    ).mean()
    e_tr = est.transverse - most_frequent_int(est.transverse)
    g_tr = truth.transverse - most_frequent_int(truth.transverse)
    tr_err = np.abs(e_tr - g_tr).mean()
    return float(ax_err), float(tr_err)
