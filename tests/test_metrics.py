import numpy as np
import pytest

from oct_align.align import global_ncc
from oct_align.core import DisplacementField, OctVolume, SurfaceSet
from oct_align.errors import DimensionError, ValidationError
from oct_align.metrics import (
    adjacent_ncc,
    connectivity_histogram,
    hd95,
    mean_abs_distance,
    motion_error,
    write_histogram_csv,
)
from oct_align.synth import MotionSpec, PhantomSpec, generate_phantom


def surfaces(pos):
    return SurfaceSet(np.asarray(pos, dtype=float))


class TestMeanAbsDistance:
    def test_identical_surfaces_zero(self, rng):
        s = surfaces(rng.uniform(2, 30, size=(2, 4, 5)))
        out = mean_abs_distance(s, s, dz_um=3.24)
        assert out["overall"]["mean_um"] == 0.0
        assert out["per_surface"]["mean_um"] == [0.0, 0.0]

    def test_constant_offset_scales_by_spacing(self, rng):
        pos = rng.uniform(5, 30, size=(1, 3, 4))
        out = mean_abs_distance(surfaces(pos + 2.0), surfaces(pos), dz_um=3.24)
        assert np.isclose(out["overall"]["mean_um"], 6.48, rtol=1e-12)

    def test_shape_mismatch(self, rng):
        a = surfaces(rng.uniform(5, 10, size=(1, 2, 3)))
        b = surfaces(rng.uniform(5, 10, size=(2, 2, 3)))
        with pytest.raises(DimensionError):
            mean_abs_distance(a, b, dz_um=1.0)


def brute_force_hd95(pred_rows, gt_rows, dz, dx):
    n_a = pred_rows.shape[0]
    pts_p = [((a + 1) * dx, pred_rows[a] * dz) for a in range(n_a)]
    pts_g = [((a + 1) * dx, gt_rows[a] * dz) for a in range(n_a)]
    d_pg = [
        np.sqrt(min((px - gx) ** 2 + (pz - gz) ** 2 for gx, gz in pts_g))
        for px, pz in pts_p
    ]
    d_gp = [
        np.sqrt(min((gx - px) ** 2 + (gz - pz) ** 2 for px, pz in pts_p))
        for gx, gz in pts_g
    ]
    return np.percentile(np.array(d_pg + d_gp), 95)


def curve_distances(pred_rows, gt_rows, dz, dx):
    """The full search hd95 made before its band: every pair's distance."""
    n_a = pred_rows.shape[0]
    xs = np.arange(1, n_a + 1, dtype=np.float64) * dx
    dxx = (xs[:, None] - xs[None, :]) ** 2
    dzz = (pred_rows[:, None] * dz - gt_rows[None, :] * dz) ** 2
    d2 = dxx + dzz
    fwd = np.sqrt(d2.min(axis=1))
    bwd = np.sqrt(d2.min(axis=0))
    return np.concatenate([fwd, bwd])


def full_search_values(pred, gt, dz, dx):
    """Per-surface values of hd95 from the full search."""
    return [
        float(np.mean([np.percentile(curve_distances(pred[l, b], gt[l, b], dz, dx), 95)
                       for b in range(pred.shape[1])]))
        for l in range(pred.shape[0])
    ]


class TestHd95:
    def test_identical_is_zero(self, rng):
        s = surfaces(rng.uniform(2, 30, size=(2, 3, 8)))
        out = hd95(s, s, spacing=(3.24, 6.7))
        assert out["overall"]["mean_um"] == 0.0

    def test_uniform_offset_bounded_by_row_spacing(self, rng):
        pos = rng.uniform(5, 20, size=(1, 2, 10))
        out = hd95(surfaces(pos + 1.0), surfaces(pos), spacing=(3.24, 6.7))
        assert 0.0 < out["overall"]["mean_um"] <= 3.24 + 1e-9

    def test_matches_brute_force_exactly(self, rng):
        # exact agreement, not approximate: same arithmetic, same percentile
        for _ in range(25):
            n_a = int(rng.integers(4, 33))
            pred = rng.uniform(2, 40, size=(1, 2, n_a))
            gt = rng.uniform(2, 40, size=(1, 2, n_a))
            dz, dx = 3.24, 6.7
            out = hd95(surfaces(pred), surfaces(gt), spacing=(dz, dx))
            expect = np.mean([
                brute_force_hd95(pred[0, b], gt[0, b], dz, dx) for b in range(2)
            ])
            assert out["overall"]["mean_um"] == expect

    def test_empty_surface_rejected(self):
        with pytest.raises(ValidationError):
            hd95(SurfaceSet(np.zeros((1, 2, 0))), SurfaceSet(np.zeros((1, 2, 0))),
                 spacing=(1.0, 1.0))


class TestHd95Band:
    """The banded search gives the full search's values bit for bit."""

    @staticmethod
    def assert_full_search(pred, gt, dz=3.24, dx=6.7):
        out = hd95(surfaces(pred), surfaces(gt), spacing=(dz, dx))
        assert out["per_surface"]["mean_um"] == full_search_values(pred, gt, dz, dx)

    def test_full_width_band(self, rng):
        # every row offset is at least N_A * dx, so every diagonal can win
        for _ in range(20):
            n_a = int(rng.integers(2, 40))
            dz, dx = 3.24, 6.7
            gt = rng.uniform(1, 40, size=(2, 3, n_a))
            shift = n_a * dx / dz + rng.uniform(0, 30, size=gt.shape)
            self.assert_full_search(gt + shift, gt, dz, dx)

    def test_random_offsets(self, rng):
        for _ in range(30):
            n_a = int(rng.integers(3, 64))
            gt = rng.uniform(1, 60, size=(3, 2, n_a))
            pred = np.maximum(gt + rng.uniform(-20, 20, size=gt.shape), 1.0)
            self.assert_full_search(pred, gt)

    @pytest.mark.parametrize("n_a", [1, 2])
    def test_one_and_two_a_scans(self, rng, n_a):
        for _ in range(10):
            gt = rng.uniform(1, 30, size=(2, 3, n_a))
            self.assert_full_search(gt + rng.uniform(0, 20, size=gt.shape), gt)

    def test_identical_curves(self, rng):
        gt = rng.uniform(1, 30, size=(2, 4, 17))
        self.assert_full_search(gt.copy(), gt)

    def test_unordered_prediction(self, rng):
        gt = np.sort(rng.uniform(1, 60, size=(3, 4, 25)), axis=0)
        pred = gt[::-1].copy()
        pred[:, :, ::3] += 5.0
        self.assert_full_search(pred, gt)

    def test_clinical_size_half_pixel_offset(self, rng):
        _vol, surf = generate_phantom(PhantomSpec(n_b=49, n_a=256, n_r=192, seed=3))
        gt = surf.positions
        pred = gt + 0.5 * rng.choice([-1.0, 1.0], size=gt.shape)
        self.assert_full_search(pred, gt)


class TestAdjacentNcc:
    def test_identical_b_scans_give_one(self, rng):
        img = rng.normal(size=(8, 12)).astype(np.float32)
        vol = OctVolume(np.stack([img] * 4))
        assert np.isclose(adjacent_ncc(vol), 1.0, atol=1e-6)

    def test_white_noise_near_zero(self, rng):
        data = rng.normal(size=(6, 40, 50))
        vol = OctVolume(data - data.min())
        bound = 3.0 / np.sqrt(40 * 50)
        assert abs(adjacent_ncc(vol)) <= bound

    @pytest.mark.parametrize("dims", [(24, 64, 96), (5, 40, 192)])
    def test_equals_the_float64_copy_version(self, dims):
        n_b, n_a, n_r = dims
        vol, _ = generate_phantom(PhantomSpec(n_b=n_b, n_a=n_a, n_r=n_r, seed=5))
        data = vol.data.astype(np.float64)
        want = float(np.mean([global_ncc(data[b], data[b + 1]) for b in range(n_b - 1)]))
        assert adjacent_ncc(vol) == want
        # a constant B-scan in the middle: both of its pairs take the
        # variance guard's 0.0, as global_ncc gives them
        flat = vol.data.copy()
        flat[n_b // 2] = 0.25
        data = flat.astype(np.float64)
        vals = [global_ncc(data[b], data[b + 1]) for b in range(n_b - 1)]
        assert vals[n_b // 2 - 1] == vals[n_b // 2] == 0.0
        assert adjacent_ncc(OctVolume(flat)) == float(np.mean(vals))


class TestConnectivityHistogram:
    def test_constant_surfaces_mass_in_first_bin(self):
        s = surfaces(np.full((2, 4, 5), 9.0))
        counts, edges = connectivity_histogram(s)
        assert counts[0] == 2 * 3 * 5
        assert counts.sum() == 2 * 3 * 5

    def test_alternating_rows_mass_at_one(self):
        pos = np.full((1, 4, 3), 10.0)
        pos[0, 1::2] += 1.0
        counts, edges = connectivity_histogram(surfaces(pos))
        assert counts.sum() == 1 * 3 * 3
        one_bin = np.searchsorted(edges, 1.0, side="right") - 1
        assert counts[one_bin] == counts.sum()

    def test_total_mass_conserved(self, rng):
        pos = rng.uniform(1, 30, size=(3, 5, 7))
        counts, _ = connectivity_histogram(surfaces(pos))
        assert counts.sum() == 3 * 4 * 7

    def test_single_b_scan_rejected(self, rng):
        with pytest.raises(DimensionError):
            connectivity_histogram(surfaces(rng.uniform(1, 5, size=(1, 1, 4))))

    def test_csv_export(self, tmp_path, rng):
        pos = rng.uniform(1, 10, size=(1, 3, 4))
        counts, edges = connectivity_histogram(surfaces(pos))
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, counts, edges)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == len(counts) + 1
        rows = "".join(f"{lo:.17g},{hi:.17g},{int(c)}\n"
                       for lo, hi, c in zip(edges[:-1], edges[1:], counts))
        assert path.read_text() == "bin_lo,bin_hi,count\n" + rows


class TestMotionError:
    def test_exact_estimate_is_zero(self, rng):
        ax = rng.uniform(-10, 10, 8)
        tr = np.zeros(8, dtype=np.int64)
        truth = MotionSpec(ax, tr, (0,))
        est = DisplacementField(axial=ax, transverse=tr)
        assert motion_error(est, truth) == (0.0, 0.0)

    def test_global_constant_removed(self, rng):
        ax = rng.uniform(-10, 10, 8)
        truth = MotionSpec(ax, np.zeros(8, dtype=np.int64), (0,))
        est = DisplacementField(axial=ax + 4.2, transverse=np.zeros(8, np.int64))
        assert motion_error(est, truth)[0] < 1e-12

    def test_transverse_mode_gauge(self):
        tr = np.array([5, 5, 5, -2, -2], dtype=np.int64)
        truth = MotionSpec(np.zeros(5), tr, (0, 3))
        est = DisplacementField(axial=np.zeros(5), transverse=tr - 5)
        assert motion_error(est, truth) == (0.0, 0.0)

    def test_length_mismatch(self):
        truth = MotionSpec(np.zeros(4), np.zeros(4, np.int64), (0,))
        with pytest.raises(DimensionError):
            motion_error(DisplacementField(np.zeros(5), np.zeros(5)), truth)

    def test_truth_type_guard(self):
        with pytest.raises(ValidationError):
            motion_error(DisplacementField(np.zeros(3), np.zeros(3)), np.zeros(3))
