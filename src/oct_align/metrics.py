"""Evaluation metrics: surface distances, adjacency statistics, motion recovery.

Per-volume aggregation rule: A-scan-wise quantities are first averaged
within a volume, then the mean and standard deviation (population) are
taken across the volume-wise values.
"""

from __future__ import annotations

import numpy as np

from .align import global_ncc
from .core import DisplacementField, OctVolume, SurfaceSet, as_positions, most_frequent_int
from .errors import DimensionError, ValidationError
from .synth import MotionSpec


def _as_list(x):
    return list(x) if isinstance(x, (list, tuple)) else [x]


def _summary(gts, per_surface, overall) -> dict:
    """Volume-wise values with their mean/std, per surface and overall.

    ``per_surface`` is (V, L) and ``overall`` (V,); surface names come from
    the first SurfaceSet among ``gts``.
    """
    per_surface = np.asarray(per_surface, dtype=np.float64)
    overall = np.asarray(overall, dtype=np.float64)
    names = next((list(g.names) for g in gts if isinstance(g, SurfaceSet)), None)
    return {
        "surfaces": names or [f"surface_{i + 1}" for i in range(per_surface.shape[1])],
        "per_surface": {
            "volume_values_um": per_surface.tolist(),
            "mean_um": per_surface.mean(axis=0).tolist(),
            "std_um": per_surface.std(axis=0).tolist(),
        },
        "overall": {
            "volume_values_um": overall.tolist(),
            "mean_um": float(overall.mean()),
            "std_um": float(overall.std()),
        },
    }


def mean_abs_distance(preds, gts, dz_um: float, masks=None) -> dict:
    """Mean absolute surface distance in micrometers.

    ``preds``/``gts`` are SurfaceSets (or one per volume in a list);
    optional boolean masks of shape (L, N_B, N_A) select the positions that
    count (missing manual delineations are excluded this way).  Returns
    per-surface and overall volume-wise values with their mean/std.
    """
    preds, gts = _as_list(preds), _as_list(gts)
    if masks is None:
        masks = [None] * len(preds)
    else:
        masks = _as_list(masks)
    if not (len(preds) == len(gts) == len(masks)):
        raise DimensionError("preds, gts, and masks must have the same volume count")
    per_surface = []
    overall = []
    for p, g, m in zip(preds, gts, masks):
        pp, gg = as_positions(p), as_positions(g)
        if pp.shape != gg.shape:
            raise DimensionError(f"prediction {pp.shape} vs ground truth {gg.shape}")
        err = np.abs(pp - gg) * float(dz_um)
        if m is not None:
            m = np.asarray(m, dtype=bool)
            if m.shape != err.shape:
                raise DimensionError(f"mask {m.shape} does not match surfaces {err.shape}")
            per_surface.append([float(err[l][m[l]].mean()) for l in range(err.shape[0])])
            overall.append(float(err[m].mean()))
        else:
            per_surface.append(err.mean(axis=(1, 2)).tolist())
            overall.append(float(err.mean()))
    return _summary(gts, per_surface, overall)


def _curve_distances(pred_rows, gt_rows, dz, dx):
    """Symmetric nearest-neighbor distances between two 2D surface curves."""
    n_a = pred_rows.shape[0]
    xs = np.arange(1, n_a + 1, dtype=np.float64) * dx
    dxx = (xs[:, None] - xs[None, :]) ** 2
    dzz = (pred_rows[:, None] * dz - gt_rows[None, :] * dz) ** 2
    d2 = dxx + dzz
    fwd = np.sqrt(d2.min(axis=1))
    bwd = np.sqrt(d2.min(axis=0))
    return np.concatenate([fwd, bwd])


def hd95(preds, gts, spacing: tuple[float, float]) -> dict:
    """95th-percentile Hausdorff distance in micrometers.

    Each surface in each B-scan becomes a 2D point set {(a*dx, r*dz)}; the
    95th percentile of the pooled directed nearest-neighbor distances gives
    the per-B-scan value, B-scans average to the volume value, and volumes
    aggregate like mean_abs_distance.  ``spacing`` is (dz, dx).
    """
    dz, dx = (float(x) for x in spacing)
    preds, gts = _as_list(preds), _as_list(gts)
    if len(preds) != len(gts):
        raise DimensionError("preds and gts must have the same volume count")
    per_surface = []
    for p, g in zip(preds, gts):
        pp, gg = as_positions(p), as_positions(g)
        if pp.shape != gg.shape:
            raise DimensionError(f"prediction {pp.shape} vs ground truth {gg.shape}")
        if pp.shape[2] == 0:
            raise ValidationError("cannot compute hd95 of an empty surface")
        vals = np.empty(pp.shape[0])
        for l in range(pp.shape[0]):
            per_b = [
                np.percentile(_curve_distances(pp[l, b], gg[l, b], dz, dx), 95)
                for b in range(pp.shape[1])
            ]
            vals[l] = float(np.mean(per_b))
        per_surface.append(vals)
    per_surface = np.asarray(per_surface)
    return _summary(gts, per_surface, per_surface.mean(axis=1))


def adjacent_ncc(volume: OctVolume) -> float:
    """Mean global NCC between consecutive B-scans (1 for identical stacks)."""
    data = volume.data.astype(np.float64)
    vals = [global_ncc(data[b], data[b + 1]) for b in range(volume.n_b - 1)]
    return float(np.mean(vals))


def connectivity_histogram(surfaces: SurfaceSet, bins=None):
    """Histogram of |r_{b+1,a} - r_{b,a}| over all surfaces, pixel units.

    Default bins are unit-width starting at 0 and covering every value, so
    the total mass is exactly L * (N_B - 1) * N_A.  Returns (counts, edges).
    """
    pos = as_positions(surfaces)
    if pos.shape[1] < 2:
        raise DimensionError("need at least two B-scans for connectivity")
    vals = np.abs(pos[:, 1:, :] - pos[:, :-1, :]).ravel()
    if bins is None:
        top = float(np.floor(vals.max())) + 1.0 if vals.size else 1.0
        edges = np.arange(0.0, top + 1.0)
        counts, edges = np.histogram(vals, bins=edges)
    else:
        counts, edges = np.histogram(vals, bins=bins, range=(0.0, float(vals.max()) + 1e-9))
    return counts, edges


def write_histogram_csv(path, counts, edges) -> None:
    with open(path, "w", newline="") as f:
        f.write("bin_lo,bin_hi,count\n")
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            f.write(f"{lo:.17g},{hi:.17g},{int(c)}\n")


def motion_error(est: DisplacementField, truth) -> tuple[float, float]:
    """Mean absolute recovery error per axis after gauge normalization.

    Axial vectors are mean-centered and transverse vectors mode-centered
    (both estimate and truth) before comparison, because the alignment
    objectives cannot see a global shift.  Returns (axial_px, transverse_px).
    """
    if isinstance(truth, MotionSpec):
        t_ax, t_tr = truth.axial_truth, truth.transverse_truth
    elif isinstance(truth, DisplacementField):
        t_ax, t_tr = truth.axial, truth.transverse
    else:
        raise ValidationError("truth must be a MotionSpec or DisplacementField")
    if est.n_b != t_ax.shape[0]:
        raise DimensionError(f"estimate has N_B={est.n_b}, truth has {t_ax.shape[0]}")
    ax_err = np.abs(
        (est.axial - est.axial.mean()) - (t_ax - t_ax.mean())
    ).mean()
    e_tr = est.transverse - most_frequent_int(est.transverse)
    g_tr = t_tr - most_frequent_int(t_tr)
    tr_err = np.abs(e_tr - g_tr).mean()
    return float(ax_err), float(tr_err)
