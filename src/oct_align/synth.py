"""Layered OCT phantoms with vessel shadows and noise, plus motion corruption.

The phantom is a stack of smooth, ordered boundary surfaces built from
low-frequency cosine bumps and a Gaussian foveal dip, filled with
per-band constant intensities, attenuated under randomly placed vessel
columns, and degraded by multiplicative speckle and additive Gaussian
noise.  Surfaces are centered per B-scan (the mean row over A-scans and
surfaces is the same for every b), so a motion-free phantom carries no
built-in per-B-scan axial offset; any such offset in a corrupted copy is
entirely the simulated motion.

Motion corruption follows the grouped-jump model: every B-scan gets an
independent axial shift drawn uniformly from [-15, 15] px, and the B-scans
are divided into 3 to 5 consecutive groups that each share one integer
transverse shift from the same range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DisplacementField, OctVolume, SurfaceSet, surfaces_to_labels
from .errors import DimensionError, ValidationError
from .resample import resample_axial

_DEFAULT_BAND_INTENSITY = (0.82, 0.38, 0.66, 0.48, 0.74, 0.30)
MAX_MOTION_PX = 15.0


@dataclass(frozen=True)
class PhantomSpec:
    """Parameters of the synthetic volume.

    ``n_layers`` counts tissue bands; the phantom has n_layers + 1 boundary
    surfaces.  Empty ``band_intensity`` / ``band_thickness_px`` pick
    defaults (cycled intensities; an even split of ~42% of the rows).
    """

    n_b: int = 24
    n_a: int = 64
    n_r: int = 96
    n_layers: int = 3
    band_intensity: tuple[float, ...] = ()
    band_thickness_px: tuple[float, ...] = ()
    thickness_wobble: float = 0.15
    top_margin_frac: float = 0.28
    bump_amplitude_px: float = 2.5
    bump_count: int = 3
    bump_max_cycles: int = 2
    fovea_depth_px: float = 6.0
    fovea_width_frac: float = 0.12
    vessel_count: int = 8
    vessel_width_px: int = 2
    vessel_drift_px: float = 2.0
    vessel_attenuation: float = 0.45
    speckle_sigma: float = 0.10
    noise_sigma: float = 0.03
    background_intensity: float = 0.06
    spacing_um: tuple[float, float, float] = (3.24, 6.7, 67.0)
    seed: int = 0

    def __post_init__(self):
        if self.n_b < 2 or self.n_a < 4 or self.n_r < 8:
            raise ValidationError(f"phantom dims too small: {(self.n_b, self.n_a, self.n_r)}")
        if self.n_layers < 1:
            raise ValidationError("need at least one tissue band")
        th = self.thicknesses()
        if any(t <= 0 for t in th):
            raise ValidationError("band thicknesses must be positive")
        if not 0 <= self.thickness_wobble < 1:
            raise ValidationError("thickness_wobble must lie in [0, 1)")
        top = self.top_margin_frac * self.n_r
        slack = self.bump_amplitude_px + self.fovea_depth_px + 1.0
        if top - self.bump_amplitude_px < 1.0:
            raise ValidationError("top margin too small for the bump amplitude")
        stack_bottom = top + sum(th) * (1.0 + self.thickness_wobble) + slack
        if stack_bottom > self.n_r:
            raise ValidationError(
                f"expected layer stack bottom {stack_bottom:.1f} exceeds R={self.n_r}"
            )
        min_gap = min(th) * (1.0 - self.thickness_wobble)
        if self.n_layers > 1 and self.fovea_depth_px / self.n_layers >= min_gap:
            raise ValidationError("foveal dip too deep for the thinnest band")
        if not 0 < self.vessel_attenuation <= 1:
            raise ValidationError("vessel_attenuation must lie in (0, 1]")

    def thicknesses(self) -> tuple[float, ...]:
        if self.band_thickness_px:
            if len(self.band_thickness_px) != self.n_layers:
                raise ValidationError(
                    f"{len(self.band_thickness_px)} thicknesses for {self.n_layers} bands"
                )
            return tuple(float(t) for t in self.band_thickness_px)
        return tuple([0.42 * self.n_r / self.n_layers] * self.n_layers)

    def intensities(self) -> tuple[float, ...]:
        if self.band_intensity:
            if len(self.band_intensity) != self.n_layers:
                raise ValidationError(
                    f"{len(self.band_intensity)} intensities for {self.n_layers} bands"
                )
            return tuple(float(v) for v in self.band_intensity)
        cyc = _DEFAULT_BAND_INTENSITY
        return tuple(cyc[i % len(cyc)] for i in range(self.n_layers))


@dataclass(frozen=True)
class MotionSpec:
    """Ground-truth simulated motion, the recovery oracle.

    ``group_boundaries`` holds the 0-based start index of each transverse
    group (first element 0).  The protocol sampler always draws 3 to 5
    groups; degenerate specs (e.g. an all-zero single group) are allowed
    for forced-identity tests.
    """

    axial_truth: np.ndarray
    transverse_truth: np.ndarray
    group_boundaries: tuple[int, ...]

    def __post_init__(self):
        ax = np.ascontiguousarray(self.axial_truth, dtype=np.float64)
        tr = np.asarray(self.transverse_truth)
        if ax.ndim != 1 or tr.ndim != 1 or ax.shape != tr.shape:
            raise DimensionError("axial and transverse truth must be equal-length vectors")
        if not np.all(np.isfinite(ax)) or np.abs(ax).max(initial=0.0) > MAX_MOTION_PX:
            raise ValidationError(f"|axial truth| must be <= {MAX_MOTION_PX} px and finite")
        trf = tr.astype(np.float64)
        if np.any(trf != np.round(trf)) or np.abs(trf).max(initial=0.0) > MAX_MOTION_PX:
            raise ValidationError(f"transverse truth must be integers within +/-{MAX_MOTION_PX} px")
        tri = np.ascontiguousarray(np.round(trf), dtype=np.int64)
        bounds = tuple(int(i) for i in self.group_boundaries)
        n_b = ax.shape[0]
        if not bounds or bounds[0] != 0 or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or bounds[-1] >= n_b:
            raise ValidationError("group boundaries must start at 0 and increase within N_B")
        if len(bounds) > 5:
            raise ValidationError("at most 5 transverse groups")
        edges = list(bounds) + [n_b]
        for lo, hi in zip(edges, edges[1:]):
            if np.unique(tri[lo:hi]).size != 1:
                raise ValidationError("transverse shift must be constant within each group")
        ax.flags.writeable = False
        tri.flags.writeable = False
        object.__setattr__(self, "axial_truth", ax)
        object.__setattr__(self, "transverse_truth", tri)
        object.__setattr__(self, "group_boundaries", bounds)

    @property
    def n_b(self) -> int:
        return self.axial_truth.shape[0]

    @classmethod
    def zero(cls, n_b: int) -> "MotionSpec":
        return cls(np.zeros(n_b), np.zeros(n_b, dtype=np.int64), (0,))

    def as_displacement(self) -> DisplacementField:
        return DisplacementField(axial=self.axial_truth, transverse=self.transverse_truth)


def _smooth_field(rng, n_b, n_a, count, max_cycles, amplitude):
    """Sum of `count` separable low-frequency cosines with |field| <= amplitude."""
    bb = np.arange(n_b, dtype=np.float64)[:, None]
    aa = np.arange(n_a, dtype=np.float64)[None, :]
    field = np.zeros((n_b, n_a))
    if count < 1 or amplitude == 0.0:
        return field
    coeffs = rng.uniform(0.5, 1.0, count)
    coeffs *= amplitude / coeffs.sum()
    coeffs *= rng.choice([-1.0, 1.0], count)
    for c in coeffs:
        fb = rng.integers(1, max_cycles + 1)
        fa = rng.integers(1, max_cycles + 1)
        pb, pa = rng.uniform(0.0, 2.0 * np.pi, 2)
        field += c * np.cos(2 * np.pi * fb * bb / n_b + pb) * np.cos(
            2 * np.pi * fa * aa / n_a + pa
        )
    return field


def generate_phantom(spec: PhantomSpec) -> tuple[OctVolume, SurfaceSet]:
    """Build a motion-free phantom volume and its exact boundary surfaces."""
    rng = np.random.default_rng(spec.seed)
    n_b, n_a, n_r = spec.n_b, spec.n_a, spec.n_r
    n_surf = spec.n_layers + 1

    surf = np.empty((n_surf, n_b, n_a))
    surf[0] = spec.top_margin_frac * n_r + _smooth_field(
        rng, n_b, n_a, spec.bump_count, spec.bump_max_cycles, spec.bump_amplitude_px
    )
    for k, thick in enumerate(spec.thicknesses()):
        wobble = _smooth_field(rng, n_b, n_a, spec.bump_count, spec.bump_max_cycles, 1.0)
        peak = np.abs(wobble).max()
        if peak > 0:
            wobble /= peak
        surf[k + 1] = surf[k] + thick * (1.0 + spec.thickness_wobble * wobble)

    # foveal dip: strongest on the inner surface, vanishing at the outermost
    bb = np.arange(n_b, dtype=np.float64)[:, None]
    aa = np.arange(n_a, dtype=np.float64)[None, :]
    wa = max(spec.fovea_width_frac * n_a, 1.0)
    wb = max(spec.fovea_width_frac * n_b, 1.0)
    dip = spec.fovea_depth_px * np.exp(
        -0.5 * (((aa - (n_a - 1) / 2.0) / wa) ** 2 + ((bb - (n_b - 1) / 2.0) / wb) ** 2)
    )
    for l in range(n_surf):
        surf[l] += dip * (1.0 - l / max(n_surf - 1, 1))

    # remove any per-B-scan mean offset: "motion-free" means exactly that
    surf += surf.mean(axis=(1, 2), keepdims=True) - surf.mean(axis=2, keepdims=True)

    if surf.min() < 1.0 or surf.max() > n_r:
        raise ValidationError("phantom surfaces left the row range; widen the margins")
    surfaces = SurfaceSet(surf)
    surfaces.require_ordered()

    lut = np.array(
        [spec.background_intensity, *spec.intensities(), spec.background_intensity]
    )
    labels = surfaces_to_labels(surfaces, n_r)
    img = lut[labels.labels]

    if spec.vessel_count > 0:
        # vessels cross the whole stack of B-scans, drifting slowly in x;
        # their shadows attenuate everything from the inner surface down.
        # Coverage is anti-aliased so a subpixel drift moves the shadow
        # smoothly, and centers stay clear of the volume edges (an edge
        # vessel would be smeared across replicate-filled columns by the
        # motion roll).
        shadow = np.zeros((n_b, n_a))
        width = max(int(spec.vessel_width_px), 1)
        margin = int(np.ceil(spec.vessel_drift_px)) + 2
        b_axis = np.arange(n_b, dtype=np.float64)
        cols = np.arange(n_a, dtype=np.float64)
        lo_bound = margin
        hi_bound = max(n_a - width - margin, lo_bound + 1)
        for _ in range(spec.vessel_count):
            a0 = float(rng.uniform(lo_bound, hi_bound))
            cycles = float(rng.uniform(0.5, 1.5))
            phase = float(rng.uniform(0.0, 2.0 * np.pi))
            drift = spec.vessel_drift_px * np.cos(
                2.0 * np.pi * cycles * b_axis / n_b + phase
            )
            start = a0 + drift  # (n_b,)
            # per-column overlap of [c, c+1) with [start, start+width)
            cover = np.clip(
                np.minimum(cols[None, :] + 1.0, start[:, None] + width)
                - np.maximum(cols[None, :], start[:, None]),
                0.0, 1.0,
            )
            shadow = np.maximum(shadow, cover)
        attn = 1.0 - (1.0 - spec.vessel_attenuation) * shadow
        below_top = np.arange(1, n_r + 1)[None, None, :] >= surf[0][..., None]
        img = img * np.where(below_top, attn[..., None], 1.0)

    if spec.speckle_sigma > 0:
        img = img * np.clip(rng.normal(1.0, spec.speckle_sigma, img.shape), 0.0, None)
    if spec.noise_sigma > 0:
        img = img + rng.normal(0.0, spec.noise_sigma, img.shape)
    img = np.clip(img, 0.0, 1.0)

    return OctVolume(img, spacing=spec.spacing_um), surfaces


def shift_transverse(data: np.ndarray, shifts) -> np.ndarray:
    """Move each B-scan's content by +t columns (integer roll, edge replicate).

    ``data`` is indexed [b, a, ...]; ``shifts`` holds one integer per B-scan.
    """
    data = np.asarray(data)
    t = np.asarray(shifts)
    if t.ndim != 1 or t.shape[0] != data.shape[0]:
        raise DimensionError(f"shift length {t.shape} does not match N_B={data.shape[0]}")
    n_b, n_a = data.shape[:2]
    src = np.clip(np.arange(n_a) - t.astype(np.int64)[:, None], 0, n_a - 1)
    return data[np.arange(n_b)[:, None], src]


def shift_surfaces_transverse(positions: np.ndarray, shifts) -> np.ndarray:
    """shift_transverse for (L, N_B, N_A) surface positions."""
    return shift_transverse(positions.transpose(1, 2, 0), shifts).transpose(2, 0, 1)


def apply_motion(volume: OctVolume, surfaces: SurfaceSet, motion: MotionSpec):
    """Corrupt a volume and its surfaces with the given ground-truth motion.

    Axial truth t pushes content toward larger rows by t (surfaces gain +t);
    transverse truth moves content toward larger column indices.
    """
    if motion.n_b != volume.n_b or surfaces.n_b != volume.n_b:
        raise DimensionError("motion, surfaces, and volume must agree on N_B")
    data = resample_axial(volume.data, -motion.axial_truth)
    data = shift_transverse(data, motion.transverse_truth)

    rolled = shift_surfaces_transverse(surfaces.positions, motion.transverse_truth)
    shifted = rolled + motion.axial_truth[None, :, None]
    if shifted.min() < 1.0 or shifted.max() > volume.n_r:
        raise ValidationError(
            "corrupted surfaces left the row range; the phantom margins are too "
            "small for this motion amplitude"
        )
    return volume.with_data(data), surfaces.with_positions(shifted)


def invert_motion(volume: OctVolume, surfaces: SurfaceSet, motion: MotionSpec):
    """Perfect inverse correction using the ground truth (for oracles/tests)."""
    data = shift_transverse(volume.data.astype(np.float64), -motion.transverse_truth)
    data = resample_axial(data, motion.axial_truth)
    pos = surfaces.positions - motion.axial_truth[None, :, None]
    unrolled = shift_surfaces_transverse(pos, -motion.transverse_truth)
    return volume.with_data(data), surfaces.with_positions(unrolled)


def sample_motion(rng, n_b: int, max_abs_px: float = MAX_MOTION_PX,
                  group_range: tuple[int, int] = (3, 5)) -> MotionSpec:
    """Draw motion per the protocol: uniform axial, grouped integer transverse."""
    axial = rng.uniform(-max_abs_px, max_abs_px, n_b)
    lo, hi = group_range
    n_groups = int(rng.integers(lo, hi + 1))
    n_groups = min(n_groups, n_b)
    if n_groups > 1:
        cuts = np.sort(rng.choice(np.arange(1, n_b), size=n_groups - 1, replace=False))
        starts = (0, *map(int, cuts))
    else:
        starts = (0,)
    shifts = rng.integers(-int(max_abs_px), int(max_abs_px) + 1, n_groups)
    transverse = np.empty(n_b, dtype=np.int64)
    edges = list(starts) + [n_b]
    for g, (b0, b1) in enumerate(zip(edges, edges[1:])):
        transverse[b0:b1] = shifts[g]
    return MotionSpec(axial, transverse, starts)


def simulate_motion(volume: OctVolume, surfaces: SurfaceSet, seed: int,
                    max_abs_px: float = MAX_MOTION_PX,
                    group_range: tuple[int, int] = (3, 5)):
    """Sample protocol motion and corrupt the inputs; returns the truth too."""
    rng = np.random.default_rng(seed)
    motion = sample_motion(rng, volume.n_b, max_abs_px, group_range)
    corrupt_vol, corrupt_surf = apply_motion(volume, surfaces, motion)
    return corrupt_vol, corrupt_surf, motion
