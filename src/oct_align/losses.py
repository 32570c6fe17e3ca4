"""Segmentation and alignment losses with hand-derived gradients.

All functions accept plain arrays (leading surface dimensions broadcast
naturally) or the corresponding container types.  Row indices are 1-based
everywhere.  Gradients are exact derivatives of the implemented formulas;
``grad`` dispatches them by name for the finite-difference checks and the
descent demos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import surface_alignment_loss
from .core import LabelMap, SurfaceDistribution, as_positions
from .errors import DimensionError, ValidationError

LOG_FLOOR = 1e-12
DICE_SMOOTH = 1e-6


def _probs(q) -> np.ndarray:
    if isinstance(q, SurfaceDistribution):
        return q.probs
    return np.asarray(q, dtype=np.float64)


def soft_argmax(q) -> np.ndarray:
    """Expected 1-based row index under each per-A-scan distribution."""
    p = _probs(q)
    sums = p.sum(axis=-1)
    if p.size and np.abs(sums - 1.0).max() > 1e-6:
        raise ValidationError(
            f"distributions must sum to 1 within 1e-6, worst |sum-1| = "
            f"{np.abs(sums - 1.0).max():.3g}"
        )
    rows = np.arange(1, p.shape[-1] + 1, dtype=np.float64)
    return p @ rows


def _int_gt(gt, n_rows: int) -> np.ndarray:
    g = as_positions(gt)
    if np.any(g != np.round(g)):
        raise ValidationError("ground-truth rows must be integers")
    gi = g.astype(np.int64)
    if gi.size and (gi.min() < 1 or gi.max() > n_rows):
        raise ValidationError(f"ground-truth rows must lie in [1, {n_rows}]")
    return gi


def cross_entropy(q, gt) -> float:
    """-sum log q(r_gt) with probabilities floored at 1e-12 before the log."""
    p = _probs(q)
    gi = _int_gt(gt, p.shape[-1])
    if gi.shape != p.shape[:-1]:
        raise DimensionError(f"gt shape {gi.shape} does not match {p.shape[:-1]}")
    picked = np.take_along_axis(p, gi[..., None] - 1, axis=-1)[..., 0]
    return float(-np.log(np.maximum(picked, LOG_FLOOR)).sum())


def grad_cross_entropy(q, gt) -> np.ndarray:
    """d(cross_entropy)/dq: -1/q at the ground-truth row, zero elsewhere."""
    p = _probs(q)
    gi = _int_gt(gt, p.shape[-1])
    picked = np.take_along_axis(p, gi[..., None] - 1, axis=-1)[..., 0]
    slope = np.where(picked > LOG_FLOOR, -1.0 / np.maximum(picked, LOG_FLOOR), 0.0)
    out = np.zeros_like(p)
    np.put_along_axis(out, gi[..., None] - 1, slope[..., None], axis=-1)
    return out


def smooth_l1(pred, gt) -> float:
    """sum of 0.5 t^2 for |t| < 1 else |t| - 0.5, with t = pred - gt."""
    t = as_positions(pred) - as_positions(gt)
    a = np.abs(t)
    return float(np.where(a < 1.0, 0.5 * t * t, a - 0.5).sum())


def grad_smooth_l1(pred, gt) -> np.ndarray:
    t = as_positions(pred) - as_positions(gt)
    return np.where(np.abs(t) < 1.0, t, np.sign(t))


def smoothness_energy(s) -> float:
    """sum over (b, a) of ||forward-difference gradient||^2, summed over surfaces.

    Border samples contribute only the differences that exist; a constant
    surface scores exactly 0.
    """
    pos = as_positions(s)
    total = 0.0
    if pos.shape[-2] > 1:
        db = np.diff(pos, axis=-2)
        total += float((db * db).sum())
    if pos.shape[-1] > 1:
        da = np.diff(pos, axis=-1)
        total += float((da * da).sum())
    return total


def grad_smoothness(s) -> np.ndarray:
    pos = as_positions(s)
    out = np.zeros_like(pos)
    if pos.shape[-2] > 1:
        db = np.diff(pos, axis=-2)
        out[..., 1:, :] += 2.0 * db
        out[..., :-1, :] -= 2.0 * db
    if pos.shape[-1] > 1:
        da = np.diff(pos, axis=-1)
        out[..., :, 1:] += 2.0 * da
        out[..., :, :-1] -= 2.0 * da
    return out


def dice_cross_entropy(class_probs, labels) -> float:
    """Mean voxel cross-entropy plus one minus the mean soft Dice over classes."""
    p = np.asarray(class_probs, dtype=np.float64)
    if isinstance(labels, LabelMap):
        lab = labels.labels
        expected = labels.n_surfaces + 1
    else:
        lab = np.asarray(labels)
        expected = int(lab.max()) + 1 if lab.size else 1
    if p.ndim != lab.ndim + 1 or p.shape[1:] != lab.shape:
        raise DimensionError(f"class probs {p.shape} do not match labels {lab.shape}")
    if p.shape[0] != expected and (isinstance(labels, LabelMap) or p.shape[0] < expected):
        raise ValidationError(
            f"class count mismatch: {p.shape[0]} probability classes for "
            f"{expected} label classes"
        )
    n_classes = p.shape[0]
    sums = p.sum(axis=0)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ValidationError("class probabilities must sum to 1 per voxel")
    picked = np.take_along_axis(p, lab[None].astype(np.int64), axis=0)[0]
    ce = float(-np.log(np.maximum(picked, LOG_FLOOR)).mean())
    dice = 0.0
    for c in range(n_classes):
        y = (lab == c).astype(np.float64)
        pc = p[c]
        dice += (2.0 * (pc * y).sum() + DICE_SMOOTH) / (pc.sum() + y.sum() + DICE_SMOOTH)
    dice /= n_classes
    return ce + (1.0 - dice)


@dataclass(frozen=True)
class LossWeights:
    """Base smoothness weight and its per-surface normalized values."""

    lambda_base: float
    lambda_l: np.ndarray

    def __post_init__(self):
        lam = np.ascontiguousarray(self.lambda_l, dtype=np.float64)
        if not np.isfinite(self.lambda_base) or self.lambda_base < 0:
            raise ValidationError("lambda_base must be finite and nonnegative")
        if lam.ndim != 1 or not np.all(np.isfinite(lam)) or (lam.size and lam.min() < 0):
            raise ValidationError("lambda_l must be a nonnegative finite vector")
        lam.flags.writeable = False
        object.__setattr__(self, "lambda_base", float(self.lambda_base))
        object.__setattr__(self, "lambda_l", lam)


def _gradient_norm_sum(pos2d: np.ndarray) -> float:
    """sum over (b, a) of the unsquared forward-difference gradient norm."""
    n_b, n_a = pos2d.shape
    db = np.zeros((n_b, n_a))
    da = np.zeros((n_b, n_a))
    if n_b > 1:
        db[:-1, :] = np.diff(pos2d, axis=0)
    if n_a > 1:
        da[:, :-1] = np.diff(pos2d, axis=1)
    return float(np.sqrt(db * db + da * da).sum())


def smoothness_weights(gt_surfaces, lambda_base: float) -> LossWeights:
    """Per-surface weights lambda_base / sum||grad S_l||, averaged over volumes.

    Smoother ground truth gives a larger weight.  A perfectly flat surface
    has a zero denominator and is rejected.
    """
    volumes = gt_surfaces if isinstance(gt_surfaces, (list, tuple)) else [gt_surfaces]
    if not volumes:
        raise ValidationError("need at least one ground-truth volume")
    per_volume = []
    n_s = None
    for v, s in enumerate(volumes):
        pos = as_positions(s)
        if n_s is None:
            n_s = pos.shape[0]
        elif pos.shape[0] != n_s:
            raise DimensionError("volumes disagree on the number of surfaces")
        lam = np.empty(n_s)
        for l in range(n_s):
            denom = _gradient_norm_sum(pos[l])
            if denom == 0.0:
                raise ValidationError(
                    f"surface {l + 1} of volume {v + 1} is flat; "
                    "its smoothness weight is undefined"
                )
            lam[l] = lambda_base / denom
        per_volume.append(lam)
    return LossWeights(lambda_base=lambda_base, lambda_l=np.mean(per_volume, axis=0))


def segmentation_loss(q, class_probs, gt_surfaces, gt_labels, weights: LossWeights) -> dict:
    """Total segmentation objective and its per-term breakdown.

    total = dice_ce + cross_entropy + smooth_l1 + sum_l lambda_l * smoothness.
    """
    p = _probs(q)
    gt = as_positions(gt_surfaces)
    if p.shape[:-1] != gt.shape:
        raise DimensionError(f"distributions {p.shape} do not match gt {gt.shape}")
    if weights.lambda_l.shape[0] != gt.shape[0]:
        raise DimensionError(
            f"{weights.lambda_l.shape[0]} weights for {gt.shape[0]} surfaces"
        )
    pred = soft_argmax(p)
    ce = cross_entropy(p, gt)
    l1 = smooth_l1(pred, gt)
    dce = dice_cross_entropy(class_probs, gt_labels)
    smooth = float(
        sum(weights.lambda_l[l] * smoothness_energy(pred[l]) for l in range(gt.shape[0]))
    )
    total = dce + ce + l1 + smooth
    return {
        "dice_ce": dce,
        "cross_entropy": ce,
        "smooth_l1": l1,
        "smoothness_weighted": smooth,
        "total": total,
    }


def mixed_surfaces(gt, pred, annotated) -> np.ndarray:
    """Ground-truth rows on annotated B-scans, predicted rows elsewhere."""
    g = as_positions(gt)
    p = as_positions(pred)
    mask = np.asarray(annotated, dtype=bool)
    if g.shape != p.shape:
        raise DimensionError(f"gt {g.shape} and predictions {p.shape} differ")
    if mask.ndim != 1 or mask.shape[0] != g.shape[1]:
        raise DimensionError(f"annotated mask length {mask.shape} does not match N_B={g.shape[1]}")
    return np.where(mask[None, :, None], g, p)


def alignment_loss_semi(gt, pred, axial, annotated) -> float:
    """Alignment smoothness on the gt/prediction mix.

    With every B-scan annotated this reduces bit-for-bit to the supervised
    loss on the ground truth.  The pair sum stops at N_B - 1.
    """
    return surface_alignment_loss(mixed_surfaces(gt, pred, annotated), axial)


def grad_alignment(surfaces, axial) -> np.ndarray:
    """d(surface_alignment_loss)/d(axial)."""
    pos = as_positions(surfaces)
    d = np.asarray(axial, dtype=np.float64)
    out = np.zeros_like(d)
    if pos.shape[1] < 2 or pos.shape[0] == 0:
        return out
    dr = pos[:, 1:, :] - pos[:, :-1, :]
    e = d[1:] - d[:-1]
    g_e = 2.0 * (e[None, :, None] - dr).sum(axis=(0, 2))
    out[1:] += g_e
    out[:-1] -= g_e
    return out


def grad_alignment_semi(gt, pred, axial, annotated):
    """Gradients of the semi-supervised loss w.r.t. axial and predicted rows.

    The row gradient is zero on annotated B-scans, where the loss reads the
    ground truth instead of the prediction.
    """
    mix = mixed_surfaces(gt, pred, annotated)
    d = np.asarray(axial, dtype=np.float64)
    mask = np.asarray(annotated, dtype=bool)
    g_d = grad_alignment(mix, d)
    g_r = np.zeros_like(mix)
    if mix.shape[1] >= 2 and mix.shape[0]:
        resid = (mix[:, :-1, :] - d[None, :-1, None]) - (
            mix[:, 1:, :] - d[None, 1:, None]
        )
        g_r[:, :-1, :] += 2.0 * resid
        g_r[:, 1:, :] -= 2.0 * resid
    g_r[:, mask, :] = 0.0
    return g_d, g_r


_GRAD_TABLE = {
    "cross_entropy": grad_cross_entropy,
    "smooth_l1": grad_smooth_l1,
    "smoothness": grad_smoothness,
    "alignment": grad_alignment,
    "alignment_semi": grad_alignment_semi,
}


def grad(loss_name: str, *args, **kwargs):
    """Dispatch an analytic gradient by loss name."""
    try:
        fn = _GRAD_TABLE[loss_name]
    except KeyError:
        raise ValidationError(
            f"unknown loss {loss_name!r}; expected one of {sorted(_GRAD_TABLE)}"
        ) from None
    return fn(*args, **kwargs)
