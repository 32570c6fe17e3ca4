"""Axial motion correction by direct minimization of an alignment objective.

Two objectives over adjacent B-scans are minimized:

* with ground-truth surfaces, the supervised mismatch
  sum((r_b - d_b) - (r_{b+1} - d_{b+1}))^2 over all A-scans and surfaces,
  whose exact minimizer is the closed form ``solve_from_surfaces``; and
* without them, the dissimilarity of adjacent B-scans: each adjacent pair's
  relative shift maximizes the pair's global normalized cross-correlation
  (``global_ncc``).

Both are invariant to a constant added to all displacements, so every
solver mean-centers its result (the gauge convention used throughout the
package).  The paper's hybrid of the two for sparse annotation (surfaces
on some B-scans, the similarity bridging the rest) has no solver here;
``losses.alignment_loss_semi`` models its supervised part.

The paper scores adjacent B-scans by a local (windowed) NCC.  Here the
score is the global NCC of the whole B-scan pair: every windowed variant
measured on the synthetic suite (windowed squared NCC searched over the
full range, on integer steps only, or refined around the chain's steps)
recovered the motion worse than global NCC did.

Three solvers are provided: the closed form, which ``optimize_alignment``
returns when given surfaces; the template chain (``_template_chain``),
which registers each B-scan to its corrected predecessor at an integer
shift; and the unsupervised estimate, which adds to each link of that
chain one parabola step through the link's scores at the chosen integer
and its two neighbors.  Only integer shifts are ever scored, so no
interpolation enters the similarity.

The chain scores all integer candidates of a step at once, each a slice
of one edge-padded copy of the B-scan being moved, from prefix sums and one
matrix product of the template with that copy, whose diagonals sum to the
candidates' cross terms (``_chain_scores``); that score picks the shift,
breaks ties, feeds the parabola and sums to the unsupervised objective.
One run of the chain (``_chain_estimates``) yields the template estimate,
the unsupervised estimate and that objective, so a caller that needs
both estimates runs it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import DisplacementField, OctVolume, SurfaceSet, as_positions, first_best
from .errors import ConfigError, DimensionError, ValidationError
from .resample import resample_axial
from .synth import MAX_MOTION_PX

SEARCH_RADIUS = int(MAX_MOTION_PX)  # a per-B-scan axial shift spans the motion amplitude

# image variance below this is treated as constant background (0/0 guard)
VARIANCE_EPS = 1e-5


@dataclass(frozen=True)
class AlignConfig:
    """``search_radius`` bounds the per-B-scan axial shift.  ``max_iters``
    is validated but changes no result: no solver iterates.  It stays
    because the benchmark's ``clinical`` workload still passes it."""

    search_radius: int = SEARCH_RADIUS
    max_iters: int = 10

    def __post_init__(self):
        if self.search_radius < 1:
            raise ValidationError(f"search_radius must be >= 1, got {self.search_radius}")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")


def _positions(surfaces) -> np.ndarray:
    """as_positions, required to be (L, N_B, N_A)."""
    pos = as_positions(surfaces)
    if pos.ndim != 3:
        raise DimensionError(f"expected (l, b, a) surface positions, got {pos.shape}")
    return pos


def _residual(surfaces, axial) -> np.ndarray:
    """(r_{b+1} - r_b) - (d_{b+1} - d_b) for every surface, adjacent B-scan
    pair and A-scan, shape (L, N_B - 1, N_A).  DimensionError unless the
    surfaces are (L, N_B, N_A) and ``axial`` is a vector of length N_B."""
    pos = _positions(surfaces)
    d = np.asarray(axial, dtype=np.float64)
    if d.ndim != 1 or d.shape[0] != pos.shape[1]:
        raise DimensionError(f"axial length {d.shape} does not match N_B={pos.shape[1]}")
    return (pos[:, 1:, :] - pos[:, :-1, :]) - (d[1:] - d[:-1])[None, :, None]


def surface_alignment_loss(surfaces, axial) -> float:
    """Sum over adjacent B-scans of the squared displacement-corrected surface gap.

    Equals sum_{b<N_B} sum_{a,l} ((r_{b,a,l} - d_b) - (r_{b+1,a,l} - d_{b+1}))^2.
    Adding a constant to all displacements leaves the value unchanged.
    """
    return float((_residual(surfaces, axial) ** 2).sum())


def global_ncc(img_a: np.ndarray, img_b: np.ndarray) -> float:
    """Whole-image zero-mean correlation coefficient with a variance guard."""
    a = np.asarray(img_a, dtype=np.float64)
    b = np.asarray(img_b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"images must share a shape, got {a.shape} vs {b.shape}")
    if a.size == 0:
        raise DimensionError(f"images of shape {a.shape} are empty")
    return _centred_ncc(*_centred(a), *_centred(b))


def _centred(img: np.ndarray) -> tuple[np.ndarray, float]:
    """``img`` as a float64 copy less its mean, and that copy's variance."""
    a = np.array(img, dtype=np.float64)
    a -= a.mean()
    return a, (a * a).mean()


def _centred_ncc(a: np.ndarray, va: float, b: np.ndarray, vb: float) -> float:
    """NCC of the centred images ``a`` and ``b`` of variances ``va`` and
    ``vb``; 0 where either variance is below VARIANCE_EPS."""
    if va < VARIANCE_EPS or vb < VARIANCE_EPS:
        return 0.0
    return float((a * b).mean() / np.sqrt(va * vb))


def _axial_field(d: np.ndarray) -> DisplacementField:
    """Axial displacements ``d`` mean-centred, with no transverse motion."""
    d = d - d.mean()
    return DisplacementField(axial=d, transverse=np.zeros(d.shape[0], dtype=np.int64))


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
    return _axial_field(np.concatenate([[0.0], np.cumsum(step)]))


def _padded_copy(img: np.ndarray, span: int) -> np.ndarray:
    """B-scan ``img`` edge-padded by ``span`` rows at each end, as a
    Fortran-ordered float64 copy less its mean rounded to float32: column
    j ... j + N_R - 1 is the B-scan shifted by the integer j - span, less a
    constant no NCC sees.  The constant keeps a large DC offset from
    cancelling in ``_chain_scores``' sums; rounded to float32, it is
    subtracted exactly from data of few significant bits, so exact ties stay
    exact."""
    n_a, n_r = img.shape
    padded = np.empty((n_a, n_r + 2 * span), order="F")
    padded[:, span:span + n_r] = img
    padded[:, :span] = img[:, :1]
    padded[:, span + n_r:] = img[:, -1:]
    padded -= np.float32(padded.mean())
    return padded


def _chain_scores(t: np.ndarray, vt: float, padded: np.ndarray, n_r: int) -> np.ndarray:
    """Global NCC of the centred template ``t`` (variance ``vt``) against
    every candidate j, columns j ... j + n_r - 1 of the Fortran-ordered
    ``padded``: means and variances from prefix sums of its column sums and
    squared column sums, sum(t * (c - mean c)) = dot(t, c) - mean c * sum(t)
    (Lewis, Fast Normalized Cross-Correlation, 1995).  One matrix product
    g = t.T @ padded holds every template column against every padded
    column, so dot(t, c_j) is the sum of g's j-th diagonal, g[i, j + i]
    over i.  Variance below VARIANCE_EPS scores 0."""
    n_a, width = padded.shape
    size = n_a * n_r
    n_cand = width - n_r + 1
    g = t.T @ padded
    s0, s1 = g.strides
    dots = as_strided(g, (n_cand, n_r), (s1, s0 + s1), writeable=False).sum(axis=1)
    col_sums = np.concatenate(([0.0], np.cumsum(padded.sum(axis=0))))
    col_squares = np.concatenate(([0.0], np.cumsum(np.einsum("ij,ij->j", padded, padded))))
    mean = (col_sums[n_r:] - col_sums[:n_cand]) / size
    var = (col_squares[n_r:] - col_squares[:n_cand]) / size - mean * mean
    scored = var >= VARIANCE_EPS
    v = np.zeros(n_cand)
    v[scored] = (dots[scored] - mean[scored] * t.sum()) / size / np.sqrt(vt * var[scored])
    return v


def _template_chain(data: np.ndarray, radius: int):
    """Sequential registration of each B-scan to its corrected predecessor.

    Returns ``(steps, offsets, score)``: ``steps[b]`` is B-scan b's integer
    estimate (the template chain), ``offsets[b]`` the subpixel correction
    of the link from B-scan b - 1 to b, in [-0.5, 0.5] (``offsets[0]`` is
    0), and ``score`` the summed NCC of the links at their chosen shifts.
    ``steps + cumsum(offsets)`` is the refined estimate.

    The chain anchors the first B-scan at zero, so absolute estimates can
    span twice the per-B-scan amplitude; the candidate grid covers that.
    Each step scores the 4*radius + 1 integer shifts at once against the
    predecessor at its own estimate (``_chain_scores``: one padded copy of
    the B-scan, so ``data`` can be the stored float32 volume and is not
    copied whole, and one matrix product for all cross terms) and keeps
    the first best in ``search_order`` (``first_best``).
    The block a step chooses is the next step's template as it is; after a
    flat template the successor keeps shift 0, its block at 0 is the next
    and the link adds nothing to ``score``, as ``global_ncc`` scores it 0.

    The offset is one parabola step through the same scores f at the
    chosen s and at s - 1 and s + 1: 0.5 (f(s-1) - f(s+1)) / c, clipped to
    [-0.5, 0.5], where the curvature c = f(s-1) - 2 f(s) + f(s+1) is
    negative.  It is 0 where c is not, after a flat template, and at
    |s| = 2*radius, whose outer neighbor is off the padded copy.
    """
    n_b, _, n_r = data.shape
    span = 2 * radius
    steps, offsets, score = np.zeros(n_b), np.zeros(n_b), 0.0
    padded = _padded_copy(data[0], span)
    for b in range(1, n_b):
        lo = span + int(steps[b - 1])
        template = padded[:, lo:lo + n_r]  # B-scan b - 1 at its estimate
        padded = _padded_copy(data[b], span)
        t, vt = _centred(template)
        if vt < VARIANCE_EPS:
            continue  # every candidate scores 0 and the search keeps shift 0
        v = _chain_scores(t, vt, padded, n_r)
        s = int(first_best(v, span))
        steps[b] = s
        score += v[span + s]
        if abs(s) < span:
            f_m, f_0, f_p = v[span + s - 1:span + s + 2]
            curv = f_m - 2.0 * f_0 + f_p
            if curv < 0:
                offsets[b] = np.clip(0.5 * (f_m - f_p) / curv, -0.5, 0.5)
    return steps, offsets, float(score)


def _chain_estimates(volume: OctVolume, cfg: AlignConfig):
    """One template chain of ``volume``: ``(template, unsupervised,
    objective)``, the template estimate ``steps``, the unsupervised estimate
    ``steps + cumsum(offsets)`` (both mean-centred) and minus the chain's
    summed link NCC.  ConfigError unless the search radius is below N_R:
    the chain pads each B-scan by a multiple of it."""
    if cfg.search_radius >= volume.n_r:
        raise ConfigError(f"search radius {cfg.search_radius} must be below N_R={volume.n_r}")
    steps, offsets, score = _template_chain(volume.data, cfg.search_radius)
    return _axial_field(steps), _axial_field(steps + np.cumsum(offsets)), -score


def optimize_alignment(volume: OctVolume, surfaces=None,
                       cfg: AlignConfig | None = None,
                       trace: list | None = None) -> DisplacementField:
    """Estimate axial displacements, mean-centered.

    With ``surfaces`` the result is ``solve_from_surfaces``, the exact
    minimizer of the supervised term, and ``trace`` (a list) receives that
    term's value at the result.

    Without them, each adjacent pair's relative shift maximizes the pair's
    global NCC: the template chain's integer shift plus the link's parabola
    step (``_template_chain``), accumulated along the chain,
    ``steps + cumsum(offsets)``.  ``trace`` receives the chain's own
    scores: minus the summed NCC of the adjacent pairs at the integer
    steps, as ``_chain_scores`` rounds it.
    """
    cfg = cfg or AlignConfig()
    if not isinstance(volume, OctVolume):
        raise DimensionError("optimize_alignment expects an OctVolume")
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

    _, disp, objective = _chain_estimates(volume, cfg)
    if trace is not None:
        trace.append(objective)
    return disp


def template_match_align(volume: OctVolume, cfg: AlignConfig | None = None) -> DisplacementField:
    """Sequential baseline: register each B-scan to its corrected predecessor.

    Integer shifts only, chosen to maximize global NCC against the previous
    B-scan resampled at its own estimate, as ``_chain_scores`` rounds it:
    ties of that score prefer the smaller |shift|, and a near-tie goes as
    that score orders it, even where ``global_ncc`` would round it the
    other way.
    The chain anchors the first B-scan, so candidates span twice the search
    radius; the cumulative result is mean-centered like the other solvers.
    """
    cfg = cfg or AlignConfig()
    if not isinstance(volume, OctVolume):
        raise DimensionError("template_match_align expects an OctVolume")
    return _chain_estimates(volume, cfg)[0]


def apply_axial_correction(volume: OctVolume, surfaces: SurfaceSet, disp: DisplacementField):
    """Resample the volume by the estimate and subtract it from the surfaces."""
    corrected = resample_axial(volume, disp.axial)
    return corrected, SurfaceSet(surfaces.positions - disp.axial[None, :, None])
