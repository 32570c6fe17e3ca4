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

from .core import DisplacementField, OctVolume, SurfaceSet, _band_runs
from .errors import DimensionError, ValidationError
from .resample import resample_axial

MAX_MOTION_PX = 15.0

# The phantom's anatomy: fixed, since the paper's synthetic protocol is the
# only experiment run on it.
BAND_INTENSITY = (0.82, 0.38, 0.66, 0.48, 0.74, 0.30)  # cycled over the bands
BAND_ROWS_FRAC = 0.42  # the share of rows the bands split evenly
BACKGROUND_INTENSITY = 0.06
THICKNESS_WOBBLE = 0.15  # a band's thickness varies by up to this fraction
BUMP_AMPLITUDE_PX = 2.5  # |low-frequency relief| of the inner surface
BUMP_COUNT = 3  # cosines summed per smooth field
BUMP_MAX_CYCLES = 2  # their highest frequency across the volume, on each axis
FOVEA_DEPTH_PX = 6.0
FOVEA_WIDTH_FRAC = 0.12  # Gaussian width as a fraction of N_A and of N_B
VESSEL_WIDTH_PX = 2
VESSEL_ATTENUATION = 0.45  # the shadowed tissue keeps this share of its intensity


@dataclass(frozen=True)
class PhantomSpec:
    """Parameters of the synthetic volume.

    ``n_layers`` counts tissue bands; the phantom has n_layers + 1 boundary
    surfaces.  The bands split ``BAND_ROWS_FRAC`` of the rows evenly and
    take the ``BAND_INTENSITY`` levels in turn.
    """

    n_b: int = 24
    n_a: int = 64
    n_r: int = 96
    n_layers: int = 3
    top_margin_frac: float = 0.28
    vessel_count: int = 8
    vessel_drift_px: float = 2.0
    speckle_sigma: float = 0.10
    noise_sigma: float = 0.03
    spacing_um: tuple[float, float, float] = (3.24, 6.7, 67.0)
    seed: int = 0

    def __post_init__(self):
        if self.n_b < 2 or self.n_a < 4 or self.n_r < 8:
            raise ValidationError(f"phantom dims too small: {(self.n_b, self.n_a, self.n_r)}")
        if self.n_b * self.n_a * self.n_r * 8 > np.iinfo(np.intp).max:
            raise ValidationError(f"phantom dims too large for one float64 volume: "
                                  f"{(self.n_b, self.n_a, self.n_r)}")
        if self.n_layers < 1:
            raise ValidationError("need at least one tissue band")
        for name in ("vessel_count", "vessel_drift_px", "speckle_sigma", "noise_sigma",
                     "seed"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.vessel_count > self.n_a:
            raise ValidationError(f"vessel_count {self.vessel_count} exceeds N_A={self.n_a}, "
                                  "the distinct columns a vessel can take")
        margin = np.ceil(self.vessel_drift_px) + 2  # generate_phantom's vessel margin
        if self.vessel_count > 0 and not self.n_a - VESSEL_WIDTH_PX - margin > margin:
            raise ValidationError(f"vessel_drift_px {self.vessel_drift_px} leaves no column "
                                  f"for a vessel to start on at N_A={self.n_a}")
        top = self.top_margin_frac * self.n_r
        slack = BUMP_AMPLITUDE_PX + FOVEA_DEPTH_PX + 1.0
        if top - BUMP_AMPLITUDE_PX < 1.0:
            raise ValidationError("top margin too small for the bump amplitude")
        stack_bottom = top + BAND_ROWS_FRAC * self.n_r * (1.0 + THICKNESS_WOBBLE) + slack
        if stack_bottom > self.n_r:
            raise ValidationError(
                f"expected layer stack bottom {stack_bottom:.1f} exceeds R={self.n_r}"
            )
        min_gap = BAND_ROWS_FRAC * self.n_r / self.n_layers * (1.0 - THICKNESS_WOBBLE)
        if self.n_layers > 1 and FOVEA_DEPTH_PX / self.n_layers >= min_gap:
            raise ValidationError("foveal dip too deep for the thinnest band")


@dataclass(frozen=True)
class MotionSpec(DisplacementField):
    """Ground-truth simulated motion, the recovery oracle: a
    ``DisplacementField`` within +/-MAX_MOTION_PX on both axes."""

    def __post_init__(self):
        super().__post_init__()
        if max(np.abs(self.axial).max(initial=0.0),
               np.abs(self.transverse).max(initial=0)) > MAX_MOTION_PX:
            raise ValidationError(f"motion truth must lie within +/-{MAX_MOTION_PX} px")

    def as_displacement(self) -> DisplacementField:
        """The plain field with the same arrays; ``perfbench/workloads.py`` calls it."""
        return DisplacementField(axial=self.axial, transverse=self.transverse)


def _smooth_field(rng, n_b, n_a, amplitude):
    """Sum of BUMP_COUNT separable low-frequency cosines with |field| <= amplitude."""
    bb = np.arange(n_b, dtype=np.float64)[:, None]
    aa = np.arange(n_a, dtype=np.float64)[None, :]
    field = np.zeros((n_b, n_a))
    coeffs = rng.uniform(0.5, 1.0, BUMP_COUNT)
    coeffs *= amplitude / coeffs.sum()
    coeffs *= rng.choice([-1.0, 1.0], BUMP_COUNT)
    for c in coeffs:
        fb = rng.integers(1, BUMP_MAX_CYCLES + 1)
        fa = rng.integers(1, BUMP_MAX_CYCLES + 1)
        pb, pa = rng.uniform(0.0, 2.0 * np.pi, 2)
        field += c * np.cos(2 * np.pi * fb * bb / n_b + pb) * np.cos(
            2 * np.pi * fa * aa / n_a + pa
        )
    return field


def _vessel_attenuation(rng, spec: PhantomSpec) -> np.ndarray:
    """The (N_B, N_A) share of its intensity the tissue keeps under the
    vessel shadows: VESSEL_ATTENUATION on a vessel, 1 off every vessel.

    Vessels cross the whole stack of B-scans, drifting slowly in x.
    Coverage is anti-aliased so a subpixel drift moves the shadow smoothly,
    and centers stay clear of the volume edges (an edge vessel would be
    smeared across replicate-filled columns by the motion roll).
    """
    n_b, n_a = spec.n_b, spec.n_a
    shadow = np.zeros((n_b, n_a))
    margin = np.ceil(spec.vessel_drift_px) + 2  # float: an inf drift is valid with no vessels
    b_axis = np.arange(n_b, dtype=np.float64)
    cols = np.arange(n_a, dtype=np.float64)
    for _ in range(spec.vessel_count):
        a0 = float(rng.uniform(margin, n_a - VESSEL_WIDTH_PX - margin))
        cycles = float(rng.uniform(0.5, 1.5))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        drift = spec.vessel_drift_px * np.cos(
            2.0 * np.pi * cycles * b_axis / n_b + phase
        )
        start = a0 + drift  # (n_b,)
        # per-column overlap of [c, c+1) with [start, start + VESSEL_WIDTH_PX)
        cover = np.clip(
            np.minimum(cols[None, :] + 1.0, start[:, None] + VESSEL_WIDTH_PX)
            - np.maximum(cols[None, :], start[:, None]),
            0.0, 1.0,
        )
        shadow = np.maximum(shadow, cover)
    return 1.0 - (1.0 - VESSEL_ATTENUATION) * shadow


def generate_phantom(spec: PhantomSpec) -> tuple[OctVolume, SurfaceSet]:
    """Build a motion-free phantom volume and its exact boundary surfaces.

    Each A-scan is n_layers + 2 label runs (``core._band_runs``): the
    background, the bands and the background again.  The image repeats one
    intensity per run, vessel shadows included, over the run lengths.  The
    speckle and then the noise are drawn one (N_A, R) B-scan block at a
    time into one buffer, which gives the values and generator state of one
    whole-volume ``rng.normal`` draw each.
    """
    rng = np.random.default_rng(spec.seed)
    n_b, n_a, n_r = spec.n_b, spec.n_a, spec.n_r
    n_surf = spec.n_layers + 1
    thick = BAND_ROWS_FRAC * n_r / spec.n_layers

    surf = np.empty((n_surf, n_b, n_a))
    surf[0] = spec.top_margin_frac * n_r + _smooth_field(rng, n_b, n_a, BUMP_AMPLITUDE_PX)
    for k in range(spec.n_layers):
        wobble = _smooth_field(rng, n_b, n_a, 1.0)
        peak = np.abs(wobble).max()
        if peak > 0:
            wobble /= peak
        surf[k + 1] = surf[k] + thick * (1.0 + THICKNESS_WOBBLE * wobble)

    # foveal dip: strongest on the inner surface, vanishing at the outermost
    bb = np.arange(n_b, dtype=np.float64)[:, None]
    aa = np.arange(n_a, dtype=np.float64)[None, :]
    wa = max(FOVEA_WIDTH_FRAC * n_a, 1.0)
    wb = max(FOVEA_WIDTH_FRAC * n_b, 1.0)
    dip = FOVEA_DEPTH_PX * np.exp(
        -0.5 * (((aa - (n_a - 1) / 2.0) / wa) ** 2 + ((bb - (n_b - 1) / 2.0) / wb) ** 2)
    )
    for l in range(n_surf):
        surf[l] += dip * (1.0 - l / (n_surf - 1))

    # remove any per-B-scan mean offset: "motion-free" means exactly that
    surf += surf.mean(axis=(1, 2), keepdims=True) - surf.mean(axis=2, keepdims=True)

    if surf.min() < 1.0 or surf.max() > n_r:
        raise ValidationError("phantom surfaces left the row range; widen the margins")
    surfaces = SurfaceSet(surf)

    bands = [BAND_INTENSITY[k % len(BAND_INTENSITY)] for k in range(spec.n_layers)]
    lut = np.array([BACKGROUND_INTENSITY, *bands, BACKGROUND_INTENSITY])
    surfaces.require_ordered()
    runs = _band_runs(surf, n_r)
    level = np.tile(lut, (n_b, n_a, 1))  # one intensity per label run

    level[..., 1:] *= _vessel_attenuation(rng, spec)[..., None]  # every run below surface 1
    img = np.repeat(level, runs.ravel()).reshape(n_b, n_a, n_r)

    # Generator.normal(loc, scale) is loc + scale * standard_normal, so
    # B-scan blocks drawn in volume order give the whole-volume draw's values
    # and leave the generator in the same state
    block = np.empty((n_a, n_r))
    if spec.speckle_sigma > 0:
        for plane in img:
            rng.standard_normal(out=block)
            block *= spec.speckle_sigma
            block += 1.0
            np.maximum(block, 0.0, out=block)
            plane *= block
    if spec.noise_sigma > 0:
        for plane in img:
            rng.standard_normal(out=block)
            block *= spec.noise_sigma
            plane += block
    # clipped straight into float32, which OctVolume stores without a copy
    out = np.clip(img, 0.0, 1.0, out=np.empty(img.shape, dtype=np.float32))

    return OctVolume(out, spacing=spec.spacing_um), surfaces


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


def apply_motion(volume: OctVolume, surfaces: SurfaceSet, motion: DisplacementField):
    """Corrupt a volume and its surfaces with the given motion, any
    ``DisplacementField`` (a ``MotionSpec`` when it is the ground truth).

    Axial truth t pushes content toward larger rows by t (surfaces gain +t);
    transverse truth moves content toward larger column indices.
    """
    if motion.n_b != volume.n_b or surfaces.n_b != volume.n_b:
        raise DimensionError("motion, surfaces, and volume must agree on N_B")
    data = shift_transverse(resample_axial(volume, -motion.axial).data, motion.transverse)

    rolled = shift_surfaces_transverse(surfaces.positions, motion.transverse)
    shifted = rolled + motion.axial[None, :, None]
    if shifted.min() < 1.0 or shifted.max() > volume.n_r:
        raise ValidationError(
            "corrupted surfaces left the row range; the phantom margins are too "
            "small for this motion amplitude"
        )
    return volume.with_data(data), SurfaceSet(shifted)


def sample_motion(rng, n_b: int) -> MotionSpec:
    """Draw motion per the protocol: uniform axial within +-MAX_MOTION_PX,
    and integer transverse shifts within it, constant over 3 to 5 groups
    (at most N_B groups, so one or two B-scans get one group each)."""
    axial = rng.uniform(-MAX_MOTION_PX, MAX_MOTION_PX, n_b)
    n_groups = min(int(rng.integers(3, 6)), n_b)
    cuts = np.sort(rng.choice(np.arange(1, n_b), size=n_groups - 1, replace=False))
    shifts = rng.integers(-int(MAX_MOTION_PX), int(MAX_MOTION_PX) + 1, n_groups)
    return MotionSpec(axial, np.repeat(shifts, np.diff((0, *cuts, n_b))))


def simulate_motion(volume: OctVolume, surfaces: SurfaceSet, seed: int):
    """Sample protocol motion and corrupt the inputs; returns the truth too."""
    if seed < 0:
        raise ValidationError(f"motion seed must be >= 0, got {seed}")
    motion = sample_motion(np.random.default_rng(seed), volume.n_b)
    corrupt_vol, corrupt_surf = apply_motion(volume, surfaces, motion)
    return corrupt_vol, corrupt_surf, motion
