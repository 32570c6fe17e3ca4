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

Both searches score their integer candidates from one edge-padded copy of
the B-scan being moved: shifting by an integer only gathers rows (with
replicate fill), so every candidate is a slice of that copy.  The window
sums behind the NCC (``_box_sum``) add each window in one fixed order
from its own entries, so the statistics of a slice are the slice of the
statistics bit for bit, and the descent computes the window sums and
variances of all candidates once per B-scan; only the cross term with each
neighbor is computed per candidate.  The template chain likewise centres
its template once per step.

The cross term runs in work arrays that ``optimize_alignment`` allocates
once per call: the doubling passes of the box sum alternate between two
of them, and the map is written into a third.  Windows of constant
background are dropped by dividing by a "safe" variance, +inf where the
variance is below VARIANCE_EPS, so they score exactly 0 without a mask.
The descent also skips a candidate when a lower bound on its terms is
above the best value found so far: every scored window adds at most 1 to
an NCC sum (Cauchy-Schwarz), plus a rounding slack tau derived from the
volume's largest magnitude against VARIANCE_EPS (``_ncc_sum_bound``), so
the smoothness terms minus that cap bound the terms from below, and the
skipped candidates could not have won.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _run_sums(x: np.ndarray, n: int, out: np.ndarray, work) -> np.ndarray:
    """Sums of n consecutive entries along the first axis, written to ``out``.

    Built by doubling, p_2w[i] = p_w[i] + p_w[i + w], with the binary digits
    of n picking the partial sums that make up each window.  Every output is
    summed in the same order from the entries of its own window only, so
    the sums of a slice equal the slice of the sums bit for bit.  The
    partial sums alternate between the two ``work`` arrays (each at least
    as long as x), so no call allocates; ``x`` itself is only read.
    """
    n_out = x.shape[0] - n + 1
    acc, offset, part, width, k = None, 0, x, 1, 0
    while True:
        if n & width:
            piece = part[offset:offset + n_out]
            if acc is not None:
                acc = np.add(acc, piece, out=out)
            elif part is x:
                acc = piece
            else:  # a work array, which a later doubling overwrites
                acc = out
                acc[...] = piece
            offset += width
        if 2 * width > n:
            if acc is not out:  # n == 1: the one piece is x itself
                out[...] = acc
            return out
        m = part.shape[0] - width
        part = np.add(part[:m], part[width:], out=work[k][:m])
        k ^= 1
        width *= 2


def _box_buffers(shape, n: int):
    """Work arrays for ``_box_sum`` of an image of this shape: two doubling
    buffers, the row sums and the output."""
    h, w = shape
    return (np.empty(shape), np.empty(shape),
            np.empty((h - n + 1, w)), np.empty((h - n + 1, w)))


def _box_sum(img: np.ndarray, n: int, bufs=None) -> np.ndarray:
    """Sums of the n-by-n windows of a 2-D array, left-aligned in full-width rows.

    Entry [i, j] is the sum of img[i:i+n, j:j+n] for j <= W-n; the last n-1
    columns are 0.  Rows are summed first, then runs along the flattened
    rows, so both passes add contiguous blocks; runs that wrap into the next
    row land only in the zeroed columns.  Position independent (see
    ``_run_sums``): a window's sum does not depend on where the image
    starts, which the candidate table relies on.  The result is the output
    array of ``bufs`` (``_box_buffers``), which are allocated when omitted.
    """
    w0, w1, rows, out = bufs or _box_buffers(img.shape, n)
    _run_sums(img, n, rows, (w0, w1))
    _run_sums(rows.ravel(), n, out.ravel()[:rows.size - n + 1], (w0.ravel(), w1.ravel()))
    out[:, img.shape[1] - n + 1:] = 0.0
    return out


def _window_stats(img: np.ndarray, n: int):
    """(image, window sums, safe window variances times n^2).

    The safe variance is +inf wherever the variance is below VARIANCE_EPS
    (constant background), so those windows score x / inf = 0 exactly.  The
    zero columns of the box sums have zero variance, so they score 0 too.
    The descent passes B-scans transposed to (R, N_A): a row shift is then
    a block of whole rows, which numpy adds as one run.
    """
    n2 = float(n * n)
    s = _box_sum(img, n)
    var = _box_sum(img * img, n) - s * s / n2
    return img, s, np.where(var >= VARIANCE_EPS * n2, var, np.inf)


def _ncc_buffers(shape, n: int):
    """Work arrays for ``_ncc_map`` of images of this shape: the product
    image, then the ``_box_buffers``."""
    return (np.empty(shape),) + _box_buffers(shape, n)


def _ncc_map(stats_a, stats_b, n: int, bufs=None) -> np.ndarray:
    """Per-pixel squared NCC of two ``_window_stats``, in full-width rows.

    Runs in ``bufs`` (``_ncc_buffers``, allocated when omitted) and returns
    its output array, so a caller that passes buffers must read the map
    before the next call.  The variances are the safe ones: a masked window
    divides by +inf and scores exactly the 0 a masked divide would give.
    """
    img_a, s_a, var_a = stats_a
    img_b, s_b, var_b = stats_b
    prod, *box = bufs or _ncc_buffers(img_a.shape, n)
    cross = _box_sum(np.multiply(img_a, img_b, out=prod), n, box)
    tmp = box[2]  # the row sums, free once the box sum is done
    np.multiply(s_a, s_b, out=tmp)
    tmp /= float(n * n)
    cross -= tmp
    cross *= cross
    cross /= np.multiply(var_a, var_b, out=tmp)
    return cross


def _ncc_from_stats(stats_a, stats_b, n: int, bufs=None) -> float:
    return float(_ncc_map(stats_a, stats_b, n, bufs).sum())


def _ncc_sum_bound(shape, n: int, max_abs: float) -> float:
    """An upper bound on ``_ncc_from_stats`` for images of this shape.

    Each of the cap = (h - n + 1)(w - n + 1) scored windows is a squared
    correlation, at most 1 by Cauchy-Schwarz, and the other entries of the
    map are exactly 0, so the exact sum is at most cap.  The bound is
    cap * (1 + tau), where tau covers the rounding of the computed sum.
    With u = 2**-53 and |values| <= max_abs = M, every box sum adds each
    term through at most D = 4 * bit_length(n) + 1 roundings (two doubling
    passes and the product), so the computed variance and cross term
    box(a*b) - s_a*s_b/n^2 are each within eps = (3D + 4) u n^2 M^2 of the
    exact ones; that is a relative error rho = eps / (VARIANCE_EPS n^2) of
    any variance that passes the mask.  Then a window scores at most
    (1 + 2 rho)^2 (1 + 4u), and summing the map, fewer than N = h * w
    entries in any order, adds a factor (1 + N u).  tau doubles the
    first-order total to cover the second-order terms and the rounding of
    this bound.  A loose tau only means a weaker bound; at intensities near
    1, n = 9 and clinical B-scans, tau is about 5e-9.
    """
    h, w = shape
    u = 2.0 ** -53
    rho = (3 * (4 * n.bit_length() + 1) + 4) * u * max_abs * max_abs / VARIANCE_EPS
    tau = 2.0 * (4.0 * rho * (1.0 + rho) + (h * w + 4) * u)
    return (h - n + 1) * (w - n + 1) * (1.0 + tau)


def _shift_table(img: np.ndarray, n: int, radius: int):
    """Window statistics of ``img`` shifted by each integer in [-radius, radius].

    Returns ``at(k)``, the ``_window_stats`` of ``_interp_rows(img, k).T``
    read as row blocks of one edge-padded copy: an integer shift is a pure
    replicate-fill gather, so candidate k is rows radius+k ... of the
    padded, transposed B-scan, and the position-independent box sums make
    the sliced statistics equal the direct ones bit for bit.
    """
    n_r = img.shape[1]
    height = n_r - n + 1
    padded = np.ascontiguousarray(np.pad(img.T, ((radius, radius), (0, 0)), mode="edge"))
    pad_img, s, var = _window_stats(padded, n)

    def at(k: int):
        lo = radius + k
        return pad_img[lo:lo + n_r], s[lo:lo + height], var[lo:lo + height]

    return at


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
    m = _ncc_map(_window_stats(a, window), _window_stats(b, window), window)
    return m[:, :a.shape[1] - window + 1]


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
    Each step scores the 4*radius + 1 integer shifts by ``global_ncc``
    against the predecessor resampled at its own estimate.  The template's
    centring and variance are computed once per step, and candidate s is
    read as columns 2*radius + s ... of one edge-padded copy of the B-scan
    (an integer shift is a pure replicate-fill gather).  The padded copy is
    Fortran-ordered, like ``_interp_rows``'s output, so every candidate is
    a contiguous block in the same memory order and numpy's pairwise means
    round exactly as they do on the resampled B-scan.
    """
    n_b, _, n_r = data.shape
    span = 2 * radius
    d = np.zeros(n_b)
    for b in range(1, n_b):
        t = _interp_rows(data[b - 1], d[b - 1])
        t = t - t.mean()
        vt = (t * t).mean()
        if vt < VARIANCE_EPS:
            continue  # every candidate scores 0 and the search keeps shift 0
        padded = np.asfortranarray(np.pad(data[b], ((0, 0), (span, span)), mode="edge"))
        best_s, best_v = 0, -np.inf
        for s in search_order(span):
            c = padded[:, span + s:span + s + n_r]
            c = c - c.mean()
            vc = (c * c).mean()
            v = 0.0 if vc < VARIANCE_EPS else float((t * c).mean() / np.sqrt(vt * vc))
            if v > best_v:
                best_v, best_s = v, s
        d[b] = float(best_s)
    return d


def optimize_alignment(volume: OctVolume, surfaces=None,
                       cfg: AlignConfig | None = None,
                       trace: list | None = None, *,
                       chain: np.ndarray | None = None) -> DisplacementField:
    """Estimate axial displacements by coordinate descent on the objective.

    Sweeps over B-scans; each d_b is minimized over the integers in
    [-search_radius, +search_radius] plus its current value, with optional
    parabolic refinement between the best integer and its neighbors.  Only
    the terms touching b are evaluated per candidate.  The objective is
    asserted non-increasing after every sweep; pass ``trace`` (a list) to
    record it.  The result is mean-centered.

    The integer candidates of B-scan b are blocks of rows of one
    edge-padded, transposed copy of it (``_shift_table``): their window
    sums and safe variances are computed once per B-scan, so a
    candidate costs only the cross term with each neighbor.  The box sums
    add every window in one fixed order (``_run_sums``), so a table-read
    candidate scores exactly what direct resampling would.  The statistics
    of the chosen value are carried forward as the next B-scan's left
    neighbor, and the right neighbor's become the next current value, so
    one B-scan is resampled directly per step (plus a refined value).
    B-scans are scored transposed to (R, N_A), so each candidate is a
    contiguous block.  The cross terms run in work arrays allocated once
    per call (``_ncc_buffers``).

    A candidate is skipped without scoring when a lower bound on its terms
    is above the running best: each NCC sum is at most
    ``_ncc_sum_bound`` = cap * (1 + tau) (cap scored windows of squared
    correlation at most 1, tau the rounding slack derived there from the
    volume's largest magnitude against VARIANCE_EPS), so the terms are at
    least the smoothness terms minus w_ncc * cap * (1 + tau) per neighbor.
    The bound is evaluated by the same float operations as the terms, with
    the NCC sums replaced by their larger bound; rounding is monotone, so
    the computed bound never exceeds the computed terms, and a skipped
    candidate could not have passed the strict ``<`` test.  Candidates are
    still visited from -R to R, so the chosen shift is bit for bit the one
    of scoring every candidate; a parabola neighbor that was skipped is
    scored when the refinement needs it.  Without surfaces the bound never
    rises above the best, and nothing is skipped.

    The descent is warm-started (the closed-form surface solution when
    surfaces are given, a sequential template chain otherwise): relative
    shifts between neighbors can reach twice the per-B-scan amplitude,
    which is outside the NCC capture range, so a cold start can strand
    whole B-scans in flat regions of the similarity.  The start is
    midrange-centered so a gauge representative inside the search box
    always exists.  ``chain`` passes in an already computed
    ``_template_chain`` of this volume, so a caller that also reports the
    template baseline computes it once.
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
    radius = cfg.search_radius
    shape = (data.shape[2], data.shape[1])  # a B-scan as scored, (R, N_A)
    bufs = _ncc_buffers(shape, n)
    ncc_bound = _ncc_sum_bound(shape, n, float(np.abs(data).max()))

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

    def stats_at(b, x):
        return _window_stats(_interp_rows(data[b], x).T, n)

    def ncc(stats_a, stats_b):
        return _ncc_from_stats(stats_a, stats_b, n, bufs)

    def full_objective(dvec):
        total = 0.0
        stats = stats_at(0, dvec[0])
        for b in range(n_b - 1):
            nxt = stats_at(b + 1, dvec[b + 1])
            total -= cfg.w_ncc * ncc(stats, nxt)
            if sm_s1 is not None:
                total += cfg.w_smooth * smooth_pair(b, dvec[b + 1] - dvec[b])
            stats = nxt
        return total

    if sm_s1 is not None:
        step = sm_s1 / sm_n
        d = np.concatenate([[0.0], np.cumsum(step)])
    elif chain is not None:
        d = np.array(chain, dtype=np.float64)
    else:
        d = _template_chain(data, radius)
    d -= 0.5 * (d.max() + d.min())  # midrange-center into the search box
    np.clip(d, -radius, radius, out=d)

    obj = full_objective(d)
    if not np.isfinite(obj):
        raise NumericalError("alignment objective not finite at the start")
    if trace is not None:
        trace.append(obj)

    for sweep in range(cfg.max_iters):
        left, cur = None, stats_at(0, d[0])
        for b in range(n_b):
            right = stats_at(b + 1, d[b + 1]) if b < n_b - 1 else None

            def local(cand, x):
                """The terms touching b at d[b] = x; their lower bound for cand None."""
                val = 0.0
                if left is not None:
                    val -= cfg.w_ncc * (ncc_bound if cand is None else ncc(left, cand))
                    if sm_s1 is not None:
                        val += cfg.w_smooth * smooth_pair(b - 1, x - d[b - 1])
                if right is not None:
                    val -= cfg.w_ncc * (ncc_bound if cand is None else ncc(cand, right))
                    if sm_s1 is not None:
                        val += cfg.w_smooth * smooth_pair(b, d[b + 1] - x)
                return val

            table = _shift_table(data[b], n, radius)
            best_x, best = float(d[b]), cur
            best_v = local(best, best_x)
            grid = {}
            for k in range(-radius, radius + 1):
                x = float(k)
                if x == best_x:
                    grid[k] = best_v
                    continue
                if local(None, x) > best_v:
                    continue  # even its lower bound loses to the best so far
                cand = table(k)
                grid[k] = v = local(cand, x)
                if v < best_v:
                    best_v, best_x, best = v, x, cand
            if (
                cfg.subpixel_refine
                and best_x == int(best_x)
                and abs(int(best_x)) < radius
            ):
                k0 = int(best_x)
                for k in (k0 - 1, k0 + 1):
                    if k not in grid:
                        grid[k] = local(table(k), float(k))
                f_m, f_0, f_p = grid[k0 - 1], grid[k0], grid[k0 + 1]
                curv = f_p - 2.0 * f_0 + f_m
                if curv > 0:
                    xv = k0 + float(np.clip(0.5 * (f_m - f_p) / curv, -0.5, 0.5))
                    cand = stats_at(b, xv)
                    v = local(cand, xv)
                    if v < best_v:
                        best_v, best_x, best = v, xv, cand
            d[b] = best_x
            left, cur = best, right

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


def template_match_align(volume: OctVolume, cfg: AlignConfig | None = None, *,
                         chain: np.ndarray | None = None) -> DisplacementField:
    """Sequential baseline: register each B-scan to its corrected predecessor.

    Integer shifts only, chosen to maximize global NCC against the previous
    B-scan resampled at its own estimate; ties prefer the smaller |shift|.
    The chain anchors the first B-scan, so candidates span twice the search
    radius; the cumulative result is mean-centered like the other solvers.
    ``chain`` passes in an already computed ``_template_chain`` of this
    volume.
    """
    cfg = cfg or AlignConfig()
    if chain is None:
        chain = _template_chain(volume.data.astype(np.float64), cfg.search_radius)
    d = chain - chain.mean()
    return DisplacementField(axial=d, transverse=np.zeros(d.shape[0], dtype=np.int64))


def apply_axial_correction(volume: OctVolume, surfaces, disp: DisplacementField):
    """Resample the volume by the estimate and subtract it from the surfaces."""
    corrected = resample_axial(volume, disp.axial)
    if surfaces is None:
        return corrected, None
    pos = _positions(surfaces) - disp.axial[None, :, None]
    if isinstance(surfaces, SurfaceSet):
        return corrected, surfaces.with_positions(pos)
    return corrected, pos
