"""Axial motion correction by direct minimization of the alignment objective.

The objective combines two terms over adjacent B-scans:

* a windowed squared normalized cross-correlation similarity (higher is
  better, entered negated), and
* when ground-truth surfaces are available, a supervised mismatch
  sum((r_b - d_b) - (r_{b+1} - d_{b+1}))^2 over all A-scans and surfaces.

Both terms are invariant to a constant added to all displacements, so
every solver mean-centers its result (the gauge convention used throughout
the package).  The similarity term is the sum of the per-pixel map that
``local_ncc_map`` returns.

Three solvers are provided: a closed form that minimizes the supervised
term exactly, a coordinate-descent optimizer over the full objective
(integer grid plus parabolic subpixel refinement), and a sequential
template-matching baseline that registers each B-scan to its corrected
predecessor by global NCC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .core import DisplacementField, OctVolume, SurfaceSet, as_positions, search_order
from .errors import DimensionError, NumericalError, ValidationError
from .resample import _interp_rows, resample_axial

# windowed variance below this is treated as constant background (0/0 guard)
VARIANCE_EPS = 1e-5


@dataclass(frozen=True)
class AlignConfig:
    ncc_window: int = 9
    search_radius: int = 15
    subpixel_refine: bool = True
    max_iters: int = 10
    tol: float = 1e-6          # relative objective decrease that stops the sweeps
    w_ncc: float = 1.0
    w_smooth: float = 1.0

    def __post_init__(self):
        if self.ncc_window < 3 or self.ncc_window % 2 == 0:
            raise ValidationError(f"ncc_window must be odd and >= 3, got {self.ncc_window}")
        if self.search_radius < 1:
            raise ValidationError(f"search_radius must be >= 1, got {self.search_radius}")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        for name in ("tol", "w_ncc", "w_smooth"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValidationError(f"{name} must be finite and nonnegative, got {v}")


def _positions(surfaces) -> np.ndarray:
    """as_positions, with a single (N_B, N_A) surface promoted to (1, N_B, N_A)."""
    pos = as_positions(surfaces)
    if pos.ndim == 2:
        pos = pos[None]
    if pos.ndim != 3:
        raise DimensionError(f"expected (l, b, a) surface positions, got {pos.shape}")
    return pos


def surface_alignment_loss(surfaces, axial) -> float:
    """Sum over adjacent B-scans of the squared displacement-corrected surface gap.

    Equals sum_{b<N_B} sum_{a,l} ((r_{b,a,l} - d_b) - (r_{b+1,a,l} - d_{b+1}))^2.
    Adding a constant to all displacements leaves the value unchanged.
    """
    pos = _positions(surfaces)
    d = np.asarray(axial, dtype=np.float64)
    if d.ndim != 1 or d.shape[0] != pos.shape[1]:
        raise DimensionError(f"axial length {d.shape} does not match N_B={pos.shape[1]}")
    if pos.shape[1] < 2 or pos.shape[0] == 0:
        return 0.0
    dr = pos[:, 1:, :] - pos[:, :-1, :]
    e = d[1:] - d[:-1]
    return float(((dr - e[None, :, None]) ** 2).sum())


def _box_sum(img: np.ndarray, n: int) -> np.ndarray:
    """Sums over all fully interior n-by-n windows; shape shrinks by n-1."""
    h = n // 2
    full = uniform_filter(img, size=n, mode="constant", cval=0.0) * float(n * n)
    return full[h:img.shape[0] - h, h:img.shape[1] - h]


def _window_stats(img: np.ndarray, n: int):
    s = _box_sum(img, n)
    var = _box_sum(img * img, n) - s * s / float(n * n)
    return img, s, var


def _ncc_map(stats_a, stats_b, n: int) -> np.ndarray:
    img_a, s_a, var_a = stats_a
    img_b, s_b, var_b = stats_b
    n2 = float(n * n)
    cross = _box_sum(img_a * img_b, n) - s_a * s_b / n2
    valid = (var_a >= VARIANCE_EPS * n2) & (var_b >= VARIANCE_EPS * n2)
    out = np.zeros_like(cross)
    np.divide(cross * cross, var_a * var_b, out=out, where=valid)
    return out


def _ncc_from_stats(stats_a, stats_b, n: int) -> float:
    return float(_ncc_map(stats_a, stats_b, n).sum())


def local_ncc_map(img_a: np.ndarray, img_b: np.ndarray, window: int = 9) -> np.ndarray:
    """Per-pixel squared NCC between two images over n-by-n windows.

    Only pixels whose window lies fully inside the image are scored; pixels
    where either window has variance below VARIANCE_EPS contribute 0.
    """
    a = np.asarray(img_a, dtype=np.float64)
    b = np.asarray(img_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise DimensionError(f"images must share a 2D shape, got {a.shape} vs {b.shape}")
    if min(a.shape) < window:
        raise DimensionError(f"image {a.shape} smaller than the {window}x{window} window")
    return _ncc_map(_window_stats(a, window), _window_stats(b, window), window)


def global_ncc(img_a: np.ndarray, img_b: np.ndarray) -> float:
    """Whole-image zero-mean correlation coefficient with a variance guard."""
    a = np.asarray(img_a, dtype=np.float64)
    b = np.asarray(img_b, dtype=np.float64)
    a = a - a.mean()
    b = b - b.mean()
    va = (a * a).mean()
    vb = (b * b).mean()
    if va < VARIANCE_EPS or vb < VARIANCE_EPS:
        return 0.0
    return float((a * b).mean() / np.sqrt(va * vb))


def solve_from_surfaces(surfaces) -> DisplacementField:
    """Closed-form minimizer of the supervised alignment term.

    Each displacement step d_{b+1} - d_b equals the mean surface-position
    change between B-scans b and b+1, accumulated from d_1 = 0 and then
    mean-centered.  The term only pins displacement differences, so the
    solution is unique up to the removed constant.
    """
    pos = _positions(surfaces)
    if pos.shape[0] == 0:
        raise ValidationError("need at least one surface to solve for displacements")
    if pos.shape[1] < 2:
        raise DimensionError("need at least two B-scans to align")
    step = (pos[:, 1:, :] - pos[:, :-1, :]).mean(axis=(0, 2))
    d = np.concatenate([[0.0], np.cumsum(step)])
    d -= d.mean()
    return DisplacementField(axial=d, transverse=np.zeros(d.shape[0], dtype=np.int64))


def _template_chain(data: np.ndarray, radius: int) -> np.ndarray:
    """Sequential integer registration of each B-scan to its corrected predecessor.

    The chain anchors the first B-scan at zero, so absolute estimates can
    span twice the per-B-scan amplitude; the candidate grid covers that.
    """
    n_b = data.shape[0]
    d = np.zeros(n_b)
    for b in range(1, n_b):
        template = _interp_rows(data[b - 1], d[b - 1])
        best_s, best_v = 0, -np.inf
        for s in search_order(2 * radius):
            v = global_ncc(template, _interp_rows(data[b], float(s)))
            if v > best_v:
                best_v, best_s = v, s
        d[b] = float(best_s)
    return d


def optimize_alignment(volume: OctVolume, surfaces=None,
                       cfg: AlignConfig | None = None,
                       trace: list | None = None) -> DisplacementField:
    """Estimate axial displacements by coordinate descent on the objective.

    Sweeps over B-scans; each d_b is minimized over the integers in
    [-search_radius, +search_radius] plus its current value, with optional
    parabolic refinement between the best integer and its neighbors.  Only
    the terms touching b are re-evaluated per candidate.  The objective is
    asserted non-increasing after every sweep; pass ``trace`` (a list) to
    record it.  The result is mean-centered.

    The descent is warm-started (the closed-form surface solution when
    surfaces are given, a sequential template chain otherwise): relative
    shifts between neighbors can reach twice the per-B-scan amplitude,
    which is outside the NCC capture range, so a cold start can strand
    whole B-scans in flat regions of the similarity.  The start is
    midrange-centered so a gauge representative inside the search box
    always exists.
    """
    cfg = cfg or AlignConfig()
    if not isinstance(volume, OctVolume):
        raise DimensionError("optimize_alignment expects an OctVolume")
    data = volume.data.astype(np.float64)
    n_b = data.shape[0]
    if min(data.shape[1], data.shape[2]) < cfg.ncc_window:
        raise DimensionError(
            f"B-scans {data.shape[1:]} smaller than the NCC window {cfg.ncc_window}"
        )
    n = cfg.ncc_window

    sm_s1 = sm_s2 = None
    sm_n = 0.0
    if surfaces is not None:
        pos = _positions(surfaces)
        if pos.shape[1] != n_b:
            raise DimensionError(f"surfaces have N_B={pos.shape[1]}, volume has {n_b}")
        if pos.shape[0]:
            dr = pos[:, 1:, :] - pos[:, :-1, :]
            sm_n = float(dr.shape[0] * dr.shape[2])
            sm_s1 = dr.sum(axis=(0, 2))
            sm_s2 = (dr * dr).sum(axis=(0, 2))

    def smooth_pair(b, e):
        return sm_s2[b] - 2.0 * e * sm_s1[b] + sm_n * e * e

    def full_objective(dvec):
        total = 0.0
        stats = _window_stats(_interp_rows(data[0], dvec[0]), n)
        for b in range(n_b - 1):
            nxt = _window_stats(_interp_rows(data[b + 1], dvec[b + 1]), n)
            total -= cfg.w_ncc * _ncc_from_stats(stats, nxt, n)
            if sm_s1 is not None:
                total += cfg.w_smooth * smooth_pair(b, dvec[b + 1] - dvec[b])
            stats = nxt
        return total

    if sm_s1 is not None:
        step = sm_s1 / sm_n
        d = np.concatenate([[0.0], np.cumsum(step)])
    else:
        d = _template_chain(data, cfg.search_radius)
    d -= 0.5 * (d.max() + d.min())  # midrange-center into the search box
    np.clip(d, -cfg.search_radius, cfg.search_radius, out=d)

    obj = full_objective(d)
    if not np.isfinite(obj):
        raise NumericalError("alignment objective not finite at the start")
    if trace is not None:
        trace.append(obj)

    for sweep in range(cfg.max_iters):
        for b in range(n_b):
            left = right = None
            if b > 0:
                left = _window_stats(_interp_rows(data[b - 1], d[b - 1]), n)
            if b < n_b - 1:
                right = _window_stats(_interp_rows(data[b + 1], d[b + 1]), n)

            def local(x):
                cand = _window_stats(_interp_rows(data[b], x), n)
                val = 0.0
                if left is not None:
                    val -= cfg.w_ncc * _ncc_from_stats(left, cand, n)
                    if sm_s1 is not None:
                        val += cfg.w_smooth * smooth_pair(b - 1, x - d[b - 1])
                if right is not None:
                    val -= cfg.w_ncc * _ncc_from_stats(cand, right, n)
                    if sm_s1 is not None:
                        val += cfg.w_smooth * smooth_pair(b, d[b + 1] - x)
                return val

            best_x = float(d[b])
            best_v = local(best_x)
            grid = {}
            for k in range(-cfg.search_radius, cfg.search_radius + 1):
                x = float(k)
                v = best_v if x == best_x else local(x)
                grid[k] = v
                if v < best_v:
                    best_v, best_x = v, x
            if (
                cfg.subpixel_refine
                and best_x == int(best_x)
                and abs(int(best_x)) < cfg.search_radius
            ):
                k0 = int(best_x)
                f_m, f_0, f_p = grid[k0 - 1], grid[k0], grid[k0 + 1]
                curv = f_p - 2.0 * f_0 + f_m
                if curv > 0:
                    xv = k0 + float(np.clip(0.5 * (f_m - f_p) / curv, -0.5, 0.5))
                    v = local(xv)
                    if v < best_v:
                        best_v, best_x = v, xv
            d[b] = best_x

        new_obj = full_objective(d)
        if not np.isfinite(new_obj):
            raise NumericalError(f"alignment objective not finite after sweep {sweep}")
        if new_obj > obj + 1e-9 * (1.0 + abs(obj)):
            raise NumericalError(f"alignment objective increased at sweep {sweep}")
        if trace is not None:
            trace.append(new_obj)
        decrease = obj - new_obj
        obj = new_obj
        if decrease <= cfg.tol * max(1.0, abs(obj)):
            break

    d -= d.mean()
    return DisplacementField(axial=d, transverse=np.zeros(n_b, dtype=np.int64))


def template_match_align(volume: OctVolume, cfg: AlignConfig | None = None) -> DisplacementField:
    """Sequential baseline: register each B-scan to its corrected predecessor.

    Integer shifts only, chosen to maximize global NCC against the previous
    B-scan resampled at its own estimate; ties prefer the smaller |shift|.
    The chain anchors the first B-scan, so candidates span twice the search
    radius; the cumulative result is mean-centered like the other solvers.
    """
    cfg = cfg or AlignConfig()
    data = volume.data.astype(np.float64)
    d = _template_chain(data, cfg.search_radius)
    d -= d.mean()
    return DisplacementField(axial=d, transverse=np.zeros(data.shape[0], dtype=np.int64))


def apply_axial_correction(volume: OctVolume, surfaces, disp: DisplacementField):
    """Resample the volume by the estimate and subtract it from the surfaces."""
    corrected = resample_axial(volume, disp.axial)
    if surfaces is None:
        return corrected, None
    pos = _positions(surfaces) - disp.axial[None, :, None]
    if isinstance(surfaces, SurfaceSet):
        return corrected, surfaces.with_positions(pos)
    return corrected, pos
