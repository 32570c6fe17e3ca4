"""Axial motion correction by direct minimization of an alignment objective.

Two objectives over adjacent B-scans are minimized:

* with ground-truth surfaces, the supervised mismatch
  sum((r_b - d_b) - (r_{b+1} - d_{b+1}))^2 over all A-scans and surfaces,
  whose exact minimizer is the closed form ``solve_from_surfaces``; and
* without them, a windowed squared normalized cross-correlation similarity
  (higher is better, entered negated), the sum of the per-pixel map that
  ``_ncc_map`` computes.

Both are invariant to a constant added to all displacements, so every
solver mean-centers its result (the gauge convention used throughout the
package).  The paper's hybrid of the two for sparse annotation (surfaces
on some B-scans, the similarity bridging the rest) has no solver here;
``losses.alignment_loss_semi`` models its supervised part.

Three solvers are provided: the closed form, which ``optimize_alignment``
returns when given surfaces; a coordinate descent on the similarity
(integer grid plus parabolic subpixel refinement); and a sequential
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
its template once per step, and the block it chose becomes the next
step's template.

The cross term runs in work arrays that ``optimize_alignment`` allocates
once per call: the doubling passes of the box sum alternate between two
of them, and the map is written into a third.  Windows of constant
background are dropped by dividing by a "safe" variance, +inf where the
variance is below VARIANCE_EPS, so they score exactly 0 without a mask.

Both searches screen their candidates cheaply, with a proven error bound,
and score exactly (with the float64 code above) only those the screen
says could still win, so every chosen shift is the one of scoring every
candidate.  The descent screens each NCC sum in float32 from normalised
statistics (``_screened_sum``: per window the box sum of the products
minus s_a s_b / n^2, times the inverse roots of the two safe variances,
squared and summed in float32), divided by the float32 sum's rounding
factor, plus a bound E that grows with the windows' conditioning
(``_screen_slack``); the template chain takes every candidate's mean and
variance from prefix sums and its cross term from one dot product
(``_chain_bounds``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DisplacementField, OctVolume, SurfaceSet, as_positions, search_order
from .errors import ConfigError, DimensionError, NumericalError, ValidationError
from .resample import _interp_rows, resample_axial

# windowed variance below this is treated as constant background (0/0 guard)
VARIANCE_EPS = 1e-5
# side of the square windows of the descent's similarity
NCC_WINDOW = 9
# relative objective decrease that stops the sweeps
TOL = 1e-6


@dataclass(frozen=True)
class AlignConfig:
    search_radius: int = 15
    max_iters: int = 10

    def __post_init__(self):
        if self.search_radius < 1:
            raise ValidationError(f"search_radius must be >= 1, got {self.search_radius}")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")


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


def _box_buffers(shape, n: int, dtype=np.float64):
    """Work arrays for ``_box_sum`` of an image of this shape: two doubling
    buffers, the row sums and the output."""
    h, w = shape
    return (np.empty(shape, dtype), np.empty(shape, dtype),
            np.empty((h - n + 1, w), dtype), np.empty((h - n + 1, w), dtype))


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


def _ncc_buffers(shape, n: int, dtype=np.float64):
    """Work arrays for ``_ncc_map`` of images of this shape: the product
    image, then the ``_box_buffers``."""
    return (np.empty(shape, dtype),) + _box_buffers(shape, n, dtype)


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


def _variance_rho(n: int, max_abs: float) -> float:
    """Relative rounding error of a computed window variance that passes the
    mask, for |values| <= max_abs.

    With u = 2**-53 and |values| <= max_abs = M, every box sum adds each
    term through at most D = 4 * bit_length(n) + 1 roundings (two doubling
    passes and the product), so the computed variance and cross term
    box(a*b) - s_a*s_b/n^2 are each within eps = (3D + 4) u n^2 M^2 of the
    exact ones.  A variance that passes the mask is at least
    VARIANCE_EPS n^2, so eps is a relative error rho = eps / (VARIANCE_EPS
    n^2) of it.  A scored window's exact squared correlation is at most 1
    (Cauchy-Schwarz), so its cross term squared over the computed
    variances is at most (1 + 2 rho)^2.
    """
    return (3 * (4 * n.bit_length() + 1) + 4) * 2.0 ** -53 * max_abs * max_abs / VARIANCE_EPS


def _screen_slack(n: int, max_abs: float, entries: int) -> float:
    """E per unit of window conditioning, for the float32 screen of an NCC sum.

    The screen (``_screened_sum``) reads the ``_screen_stats`` of two
    ``_window_stats``: float32 copies of the image, of u = s / n and of inv
    = 1 / sqrt(var) (0 where the safe variance is +inf, so the mask is the
    float64 one).  Per window it computes v = (box(a*b) - u_a*u_b) * inv_a
    * inv_b in float32 and sums v^2 over the map's m = ``entries`` entries
    in float32, S32.  Then S64 <= S32 / (1 - m 2**-24) + E for the float64
    sum S64, with E = slack * (K_a + K_b), where K = sum of kappa_w =
    box(x^2)_w / var_w over the image's unmasked windows
    (``_conditioning``).

    Derivation, per window scored in both images (any other window has
    inv = 0 in one image, so v is exactly 0, as the float64 entry is),
    with u = 2**-24 and D = 4 * bit_length(n) + 1 as in ``_variance_rho``.
    Let C be the cross term box(a*b) - s_a*s_b/n^2 in exact arithmetic on
    the float64 images and sums, m* = C^2 / (var_a var_b) on the float64
    variances, and r = |C| / sqrt(var_a var_b), at most R = 1 + 2 rho (rho
    = ``_variance_rho``, as m* <= (1 + 2 rho)^2 there).  The float32 box
    sum of the products rounds each term at most D times (the casts of a
    and b, the product and the doubling passes), within D u sum|a b| <= D u
    sqrt(Q_a Q_b), Q = box(x^2); u_a*u_b takes 5 roundings (for each of u_a
    and u_b the float64 division and the cast, then the product) of a value
    at most sqrt(Q_a Q_b) (s^2 <= n^2 Q); the subtraction one more,
    relative to C.  So the float32 cross term is within e sqrt(var_a
    var_b) of C, e = (D + 5) u sqrt(kappa_a kappa_b) + u r.  The inverse
    roots (each one cast, after a float64 root and division) and the two
    products by them scale it by a factor within 4u of 1, so v^2 >= max(0,
    r - e)^2 (1 - 8u), and m* - v^2 <= 2 r e + 8 u r^2 whether or not e
    exceeds r: no e^2 term, so the bound stays linear in kappa however
    ill-conditioned the window.  With sqrt(kappa_a kappa_b) <= (kappa_a +
    kappa_b) / 2 and kappa >= 1 on scored windows, m* - v^2 <= R^2 (D + 10)
    u (kappa_a + kappa_b).  kappa is computed from the float64 sums and
    variances, within a factor R of box(x^2) / var.  The float64 entry
    exceeds m* by the same expression in 2**-53 instead of u, 2**-29 of
    it, the float64 roundings of inv add 2**-29 of the 4u, and the factor
    2 in slack = 2 R^3 (D + 10) u covers those and every second-order
    term.

    The square of v is the only rounding not counted above: it and the
    additions are the sum's.  Each v^2 reaches S32 through at most m
    roundings (its product, unless fused, and at most m - 1 additions, in
    whatever order ``np.einsum`` adds), each losing at most a factor (1 -
    u) of a non-negative value, so S32 >= (1 - m u) sum v^2 for any
    summation order; the slack is inf from m = 2**24 on, where that factor
    is not positive.  The float64 sum S64 of the exact score and the
    evaluation of the bound round by less than 2**-40 relative, which
    ``_screened_sum`` adds as a factor; for S64 that rests on numpy's
    pairwise summation, since an order-free (m - 1) 2**-53 bound exceeds
    2**-40 once m > 8192, and a 256x192 B-scan has 45,632 windows.

    Float32 underflow moves a window by less than 2**-120 of a passing
    variance, far inside the u terms.  While n^2 M^2 < 2**63 no float32
    step before the square overflows: |box(a*b)| and |u_a*u_b| stay below
    2**64 and inv about 1 / (n sqrt(VARIANCE_EPS)) at most.  kappa is then below
    M^2 / VARIANCE_EPS, so at n = 9 every v^2 is below 2**108 and a map of
    fewer than 2**20 entries cannot overflow; a larger one can only
    overflow to +inf (the terms are squares, never nan), which bounds
    anything.  From n^2 M^2 >= 2**63 on the slack is inf, and the descent
    then does not screen.  A loose E only screens less.
    """
    if n * n * max_abs * max_abs >= 2.0 ** 63 or entries >= 2 ** 24:
        return np.inf
    big_r = 1.0 + 2.0 * _variance_rho(n, max_abs)
    return 2.0 * big_r ** 3 * (4 * n.bit_length() + 11) * 2.0 ** -24


def _conditioning(s: np.ndarray, var: np.ndarray, n: int) -> np.ndarray:
    """kappa_w = box(x^2)_w / var_w = 1 + s_w^2 / (n^2 var_w) of every
    window from its sums and safe variances; 0 where the window is masked."""
    kappa = s * s
    kappa /= float(n * n) * var
    kappa += np.isfinite(var)
    return kappa


def _float32_stats(stats, n: int):
    """The float32 statistics the screen reads from a ``_window_stats``:
    the image, u = s / n and inv = 1 / sqrt(var), which is 0 where the
    safe variance is +inf (masked windows and the zero columns)."""
    img, s, var = stats
    inv = np.sqrt(var)
    np.divide(1.0, inv, out=inv)
    return img.astype(np.float32), (s / n).astype(np.float32), inv.astype(np.float32)


def _screen_stats(stats, n: int):
    """A ``_window_stats`` as the screen reads it: its ``_float32_stats``
    and the summed conditioning of its windows."""
    return _float32_stats(stats, n), float(_conditioning(stats[1], stats[2], n).sum())


def _screened_sum(screen_a, screen_b, n: int, slack: float, bufs) -> float:
    """An upper bound on ``_ncc_from_stats`` of two window statistics, from
    their ``_screen_stats``: the float32 sum of the normalised map over its
    rounding factor, plus E (``_screen_slack``).

    Each window's v = (box(a*b) - u_a*u_b) * inv_a * inv_b is its
    correlation, so the map takes no division and no variance product, and
    ``np.einsum`` squares and sums it in float32 in one pass: no float64
    copy of the map, and no BLAS call, which may start threads inside pool
    workers.  ``bufs`` are float32 ``_ncc_buffers``.  Only called with a
    finite slack.
    """
    ((img_a, u_a, inv_a), kappa_a), ((img_b, u_b, inv_b), kappa_b) = screen_a, screen_b
    prod, *box = bufs
    cross = _box_sum(np.multiply(img_a, img_b, out=prod), n, box)
    cross -= np.multiply(u_a, u_b, out=box[2])  # the row sums, free once the box sum is done
    cross *= inv_a
    cross *= inv_b
    flat = cross.ravel()
    total = float(np.einsum("i,i->", flat, flat)) / (1.0 - flat.size * 2.0 ** -24)
    return (total + slack * (kappa_a + kappa_b)) * (1.0 + 2.0 ** -40)


def _shift_table(img: np.ndarray, n: int, radius: int):
    """Window statistics of ``img`` shifted by each integer in [-radius, radius].

    Returns ``(at, screen_at)``.  ``at(k)`` is the ``_window_stats`` of
    ``_interp_rows(img, k).T`` read as row blocks of one edge-padded copy,
    cast to float64 as it is made (exact, so ``img`` may be float32):
    an integer shift is a pure replicate-fill gather, so candidate k is
    rows radius+k ... of the padded, transposed B-scan, and the
    position-independent box sums make the sliced statistics equal the
    direct ones bit for bit.  ``screen_at(k)`` is the ``_screen_stats`` of
    the same candidate: row blocks of the table's ``_float32_stats`` (each
    entry depends only on the same entry of the table, so a block equals
    the candidate's own bit for bit), and the conditioning summed by
    prefix sums over the table's rows.  Those arrays are made on the first
    call.
    """
    n_r = img.shape[1]
    height = n_r - n + 1
    padded = np.ascontiguousarray(np.pad(img.T, ((radius, radius), (0, 0)), mode="edge"),
                                  np.float64)
    stats = _window_stats(padded, n)
    screen = []

    def block(table, k):
        lo = radius + k
        return table[0][lo:lo + n_r], table[1][lo:lo + height], table[2][lo:lo + height]

    def at(k: int):
        return block(stats, k)

    def screen_at(k: int):
        if not screen:
            rows = _conditioning(stats[1], stats[2], n).sum(axis=1)
            screen.extend((_float32_stats(stats, n), np.concatenate(([0.0], np.cumsum(rows)))))
        table, prefix = screen
        lo = radius + k
        return block(table, k), float(prefix[lo + height] - prefix[lo])

    return at, screen_at


def global_ncc(img_a: np.ndarray, img_b: np.ndarray) -> float:
    """Whole-image zero-mean correlation coefficient with a variance guard."""
    a = np.asarray(img_a, dtype=np.float64)
    b = np.asarray(img_b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"images must share a shape, got {a.shape} vs {b.shape}")
    if a.size == 0:
        raise DimensionError(f"images of shape {a.shape} are empty")
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


def _chain_bounds(t: np.ndarray, vt: float, padded: np.ndarray, n_r: int):
    """Screened global NCC of every candidate of one template-chain step.

    ``t`` is the centred template, ``vt`` its variance, and candidate j is
    columns j ... j + n_r - 1 of the Fortran-ordered ``padded`` (the
    chain's shift j - 2 * radius).  Returns ``(v, var, undecided, err)``:
    the screened score and variance of every candidate, the mask of those
    whose screened variance lies within slack of VARIANCE_EPS (their mask
    is not decided), and a bound err on |v - exact score| for every other
    candidate.  The exact score is ``global_ncc`` of the template and the
    candidate.

    Means and variances come from prefix sums of the column sums and
    squared column sums of ``padded``; sum(t * c) is one dot product on the
    contiguous block, and sum(t * (c - mean c)) = dot - mean c * sum(t).

    Slack and err, with u = 2**-53, N = N_A * n_r values per candidate,
    N' = N_A * width for the padded copy and q = mean(c^2).  Any sum of m
    terms, in any order, is within (m - 1) u sum|terms|.  The column sums
    and prefix sums add each term of a candidate's sums through at most
    K = N_A + width + 3 roundings, relative to the whole padded copy; by
    Cauchy-Schwarz that puts the screened mean within K u r sqrt(q') and
    the screened mean square within K u r q' of the exact ones, r = N' / N,
    q' = mean square of ``padded``.  The screened variance q - mean^2 is
    then within (3 K r + 3) u q^ (q^ = the largest q and q') and the exact
    formula's mean((c - mean c)^2) within (N + 2) u q of the exact value;
    doubling their sum for the second-order terms gives slack = 2 (3 K r +
    N + 5) u q^.  A candidate whose screened variance is at least slack
    from VARIANCE_EPS is therefore masked (scored 0) by both or by neither.
    For one that both score, the dot product and mean c * sum(t) are each
    within N u N sqrt(vt q) of exact, so the screened covariance is within
    (2N + 4) u sqrt(vt q) and, relative to sqrt(vt var), within (2N + 4) u
    sqrt(kappa), kappa = q / var; the variance error moves the score by at
    most |v| slack / (2 var), and the exact formula is within (1.5 N + 8) u
    (its own centring, products, means and the final division).  With var
    >= (screened variance - slack) and 3u for the screened division, err =
    2 ((2N + 4) u sqrt(kappa_max) + (1.5 N + 11) u) + slack / var_min over
    the candidates both score; candidates both mask differ by 0.  A loose
    err or slack only confirms more candidates.
    """
    n_a, width = padded.shape
    size = n_a * n_r
    u = 2.0 ** -53
    flat = padded.ravel(order="F")
    t_flat = t.ravel(order="F")
    n_cand = width - n_r + 1
    dots = np.array([np.dot(t_flat, flat[j * n_a:(j + n_r) * n_a]) for j in range(n_cand)])
    col_sums = np.concatenate(([0.0], np.cumsum(padded.sum(axis=0))))
    col_squares = np.concatenate(([0.0], np.cumsum(np.einsum("ij,ij->j", padded, padded))))
    mean = (col_sums[n_r:] - col_sums[:n_cand]) / size
    q = (col_squares[n_r:] - col_squares[:n_cand]) / size
    var = q - mean * mean
    scored = var >= VARIANCE_EPS
    v = np.zeros(n_cand)
    v[scored] = (dots[scored] - mean[scored] * t.sum()) / size / np.sqrt(vt * var[scored])

    q_hat = max(float(q.max()), float(col_squares[-1]) / (n_a * width))
    slack = 2.0 * (3.0 * (n_a + width + 3) * width / n_r + size + 5) * u * q_hat
    undecided = np.abs(var - VARIANCE_EPS) < slack
    live = scored & ~undecided
    err = 0.0
    if live.any():
        low = var[live] - slack
        err = (2.0 * ((2 * size + 4) * u * float(np.sqrt((q[live] / low).max()))
                      + (1.5 * size + 11) * u) + slack / float(low.min()))
    return v, var, undecided, err


def _template_chain(data: np.ndarray, radius: int) -> np.ndarray:
    """Sequential integer registration of each B-scan to its corrected predecessor.

    The chain anchors the first B-scan at zero, so absolute estimates can
    span twice the per-B-scan amplitude; the candidate grid covers that.
    Each step scores the 4*radius + 1 integer shifts by ``global_ncc``
    against the predecessor resampled at its own estimate.  Candidate s is
    read as columns 2*radius + s ... of one edge-padded copy of the B-scan
    (an integer shift is a pure replicate-fill gather), cast to float64 as
    it is padded, so ``data`` can be the stored float32 volume: the cast is
    exact and the volume is not copied whole.  The padded copy is
    Fortran-ordered, like ``_interp_rows``'s output, so every candidate is
    a contiguous block in the same memory order and numpy's pairwise means
    round exactly as they do on the resampled B-scan.  The block a step
    chooses is therefore the next step's template as it is, with no
    resampling; after a flat template the successor keeps shift 0 and its
    block at 0 is the next template.

    All candidates are first screened at once (``_chain_bounds``, from the
    template centred once per step), within a proven err of their exact
    scores.  Only the candidates that can still win are scored exactly, in
    search order, and ``max`` keeps the first best: those within 2 err of
    the best screened score of a candidate whose mask is decided (that
    candidate's exact score beats any candidate more than 2 err below it),
    and those whose screened variance lies within a derived slack of
    VARIANCE_EPS (their mask is not decided; they do not set the best).  The exact
    winner, and every candidate that ties it, is among them, so the chosen
    shift is the one of scoring every candidate.
    """
    n_b, _, n_r = data.shape
    span = 2 * radius

    def padded_copy(img):
        return np.asfortranarray(np.pad(img, ((0, 0), (span, span)), mode="edge"), np.float64)

    d = np.zeros(n_b)
    padded = padded_copy(data[0])
    for b in range(1, n_b):
        lo = span + int(d[b - 1])
        template = padded[:, lo:lo + n_r]  # B-scan b - 1 at its estimate
        padded = padded_copy(data[b])
        t = template - template.mean()
        vt = (t * t).mean()
        if vt < VARIANCE_EPS:
            continue  # every candidate scores 0 and the search keeps shift 0
        v, _, undecided, err = _chain_bounds(t, vt, padded, n_r)
        confirm = undecided | (v >= v[~undecided].max(initial=-np.inf) - 2.0 * err)
        d[b] = max((s for s in search_order(span) if confirm[span + s]),
                   key=lambda s: global_ncc(template, padded[:, span + s:span + s + n_r]))
    return d


def _check_radius(volume: OctVolume, cfg: AlignConfig) -> None:
    """ConfigError unless the axial search radius is below N_R: the searches
    pad each B-scan by a multiple of it."""
    if cfg.search_radius >= volume.n_r:
        raise ConfigError(f"search radius {cfg.search_radius} must be below N_R={volume.n_r}")


def optimize_alignment(volume: OctVolume, surfaces=None,
                       cfg: AlignConfig | None = None,
                       trace: list | None = None, *,
                       chain: np.ndarray | None = None) -> DisplacementField:
    """Estimate axial displacements, mean-centered.

    With ``surfaces`` the result is ``solve_from_surfaces``, the exact
    minimizer of the supervised term, and ``trace`` (a list) receives that
    term's value at the result.

    Without them, a coordinate descent on the similarity sweeps over
    B-scans; each d_b is minimized over the integers in [-search_radius,
    +search_radius] plus its current value, then refined by a parabola
    through the best integer and its neighbors.  Only the two
    NCC sums touching b are evaluated per candidate.  The objective is
    asserted non-increasing after every sweep; pass ``trace`` to record it
    (the benchmark's replay, ``perfbench/replay.py``, reads it).

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
    per call (``_ncc_buffers``).  The float32 volume is not copied: each
    B-scan is cast to float64 (exactly) as it is resampled or padded.

    A candidate is screened before it is scored: its two NCC sums are
    computed in float32 from normalised statistics (``_screened_sum``,
    float32 work arrays allocated once per call; the neighbor's
    ``_screen_stats`` once per step, the candidates' from the table), and
    S32 / (1 - m 2**-24) + E, with E derived in ``_screen_slack`` from
    each window's conditioning, bounds each float64 sum from above.  The
    candidate is skipped when minus those bounds is above the running
    best; the bound is evaluated by the same float operations as
    the terms, and rounding is monotone, so a skipped candidate could not
    have passed the strict ``<`` test.  Where the slack is inf (n^2 M^2 >=
    2**63 or 2**24 map entries, beyond the derivation) nothing is
    screened.  Candidates are still visited from -R to R, so the chosen
    shift is bit for bit the one of scoring every candidate.  The
    parabola's two neighbors are scored after the scan, whether or not the
    scan scored them.

    The sweep keeps one NCC sum per adjacent pair: ``pair[b]`` is the sum
    of B-scans b and b + 1 at their current values, so the current value of
    B-scan b costs no cross term (its sums are pair[b - 1] and pair[b]).
    Once b has chosen, the chosen value's left- and right-hand sums are
    written to pair[b - 1] and pair[b] (a table slice scores what direct
    resampling would), so after the sweep ``pair`` holds the pair terms at
    the values the sweep ends with, and the objective is minus those sums,
    subtracted in pair order.  The first sweep fills ``pair`` from the
    statistics each step holds and subtracts the same way for the start
    objective; its finiteness is checked when that sweep ends.  Each
    B-scan keeps, per integer candidate, the left-hand sum it computed, or
    the screened bound where only the screen ran, (2R + 1) floats.  They
    hold while the left neighbor keeps its value, so the row of B-scan
    b + 1 is cleared whenever B-scan b moves.  A later sweep reads them
    instead of scoring again, and a known exact sum stands in for its
    bound.  It is at most the bound, so it skips every candidate the bound
    would, and any other it skips would score above the running best
    exactly as well.  A sweep in which no B-scan moved computes no
    left-hand sum of an integer candidate; only a refined value's is
    computed each time.

    The descent is warm-started from a sequential template chain: relative
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
    n_b = volume.data.shape[0]
    if min(volume.data.shape[1], volume.data.shape[2]) < NCC_WINDOW:
        raise DimensionError(
            f"B-scans {volume.data.shape[1:]} smaller than the NCC window {NCC_WINDOW}"
        )
    if surfaces is not None:
        pos = _positions(surfaces)
        if pos.shape[1:] != volume.data.shape[:2]:
            raise DimensionError(
                f"surfaces have (N_B, N_A)={pos.shape[1:]}, volume has {volume.data.shape[:2]}"
            )
        disp = solve_from_surfaces(pos)
        if trace is not None:
            trace.append(surface_alignment_loss(pos, disp.axial))
        return disp

    _check_radius(volume, cfg)
    data = volume.data
    n = NCC_WINDOW
    radius = cfg.search_radius
    shape = (data.shape[2], data.shape[1])  # a B-scan as scored, (R, N_A)
    bufs = _ncc_buffers(shape, n)
    bufs32 = _ncc_buffers(shape, n, np.float32)
    slack = _screen_slack(n, float(max(data.max(), -data.min())), bufs32[-1].size)

    def stats_at(b, x):
        return _window_stats(_interp_rows(data[b], x).T, n)

    def ncc(stats_a, stats_b):
        return _ncc_from_stats(stats_a, stats_b, n, bufs)

    d = _template_chain(data, radius) if chain is None else np.array(chain, dtype=np.float64)
    d -= 0.5 * (d.max() + d.min())  # midrange-center into the search box
    np.clip(d, -radius, radius, out=d)

    # left_sums[b, radius + k] is the left-hand NCC sum of candidate k of
    # B-scan b if left_exact[b, radius + k], else the screened bound on it
    # (nan: neither computed); row b is cleared when B-scan b - 1 moves.
    # Arrays made once: a dict per B-scan, its tables allocated among the
    # descent's arrays, fragmented the heap and raised the peak RSS of a
    # 49x256x192 item by up to 10 MiB.
    left_sums = np.full((n_b, 2 * radius + 1), np.nan)
    left_exact = np.zeros((n_b, 2 * radius + 1), dtype=bool)
    # pair[b]: the NCC sum of B-scans b and b + 1 at their current values
    pair = [0.0] * (n_b - 1)

    for sweep in range(cfg.max_iters):
        left, cur = None, stats_at(0, d[0])
        start = 0.0  # the first sweep adds up the start objective
        for b in range(n_b):
            right = stats_at(b + 1, d[b + 1]) if b < n_b - 1 else None
            if right is not None and sweep == 0:
                pair[b] = ncc(cur, right)
                start -= pair[b]
            sum_left = 0.0 if left is None else pair[b - 1]  # the current value's sums
            sum_right = 0.0 if right is None else pair[b]
            known, known_exact = left_sums[b], left_exact[b]
            if left is not None and float(d[b]).is_integer():
                i = radius + int(d[b])
                known[i], known_exact[i] = sum_left, True
            table, screen_at = _shift_table(data[b], n, radius)
            screen_left = None  # made when first needed: a confirming sweep needs none
            if right is not None and slack < np.inf:
                screen_right = _screen_stats(right, n)

            def exact(x, cand):
                """The terms touching b at value x, its two NCC sums, and its
                statistics ``cand``; a missing neighbor's sum is 0.0."""
                if left is None:
                    ncc_left = 0.0
                elif not x.is_integer():  # a refined value, not kept
                    ncc_left = ncc(left, cand)
                else:
                    i = radius + int(x)
                    if not known_exact[i]:
                        known[i], known_exact[i] = ncc(left, cand), True
                    ncc_left = float(known[i])
                ncc_right = 0.0 if right is None else ncc(cand, right)
                return 0.0 - ncc_left - ncc_right, ncc_left, ncc_right, cand

            best_x, best = float(d[b]), (0.0 - sum_left - sum_right, sum_left, sum_right, cur)
            for k in range(-radius, radius + 1):
                x = float(k)
                if x == best_x:
                    continue
                if slack < np.inf:
                    # upper bounds on the two NCC sums, for a lower bound on
                    # the terms; a known left-hand sum stands in for its bound
                    bound_left = bound_right = 0.0
                    if left is not None:
                        i = radius + k
                        if np.isnan(known[i]):
                            if screen_left is None:
                                screen_left = _screen_stats(left, n)
                            known[i] = _screened_sum(screen_left, screen_at(k), n, slack, bufs32)
                        bound_left = float(known[i])
                    if right is not None:
                        bound_right = _screened_sum(screen_at(k), screen_right, n, slack, bufs32)
                    if 0.0 - bound_left - bound_right > best[0]:
                        continue  # even its lower bound loses to the best so far
                scored = exact(x, table(k))
                if scored[0] < best[0]:
                    best_x, best = x, scored
            if best_x == int(best_x) and abs(int(best_x)) < radius:
                k0 = int(best_x)
                f_m = exact(float(k0 - 1), table(k0 - 1))[0]
                f_p = exact(float(k0 + 1), table(k0 + 1))[0]
                curv = f_p - 2.0 * best[0] + f_m
                if curv > 0:
                    xv = k0 + float(np.clip(0.5 * (f_m - f_p) / curv, -0.5, 0.5))
                    scored = exact(xv, stats_at(b, xv))
                    if scored[0] < best[0]:
                        best_x, best = xv, scored
            if best_x != d[b] and right is not None:  # B-scan b + 1's kept sums are stale
                left_sums[b + 1] = np.nan
                left_exact[b + 1] = False
            d[b] = best_x
            _, sum_left, sum_right, chosen = best
            if left is not None:
                pair[b - 1] = sum_left
            if right is not None:
                pair[b] = sum_right
            left, cur = chosen, right

        if sweep == 0:
            obj = start
            if not np.isfinite(obj):
                raise NumericalError("alignment objective not finite at the start")
            if trace is not None:
                trace.append(obj)
        new_obj = 0.0
        for s in pair:
            new_obj -= s
        if not np.isfinite(new_obj):
            raise NumericalError(f"alignment objective not finite after sweep {sweep}")
        if new_obj > obj + 1e-9 * (1.0 + abs(obj)):
            raise NumericalError(f"alignment objective increased at sweep {sweep}")
        if trace is not None:
            trace.append(new_obj)
        decrease = obj - new_obj
        obj = new_obj
        if decrease <= TOL * max(1.0, abs(obj)):
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
    _check_radius(volume, cfg)
    if chain is None:
        chain = _template_chain(volume.data, cfg.search_radius)
    d = chain - chain.mean()
    return DisplacementField(axial=d, transverse=np.zeros(d.shape[0], dtype=np.int64))


def apply_axial_correction(volume: OctVolume, surfaces: SurfaceSet, disp: DisplacementField):
    """Resample the volume by the estimate and subtract it from the surfaces."""
    corrected = resample_axial(volume, disp.axial)
    return corrected, surfaces.with_positions(surfaces.positions - disp.axial[None, :, None])
