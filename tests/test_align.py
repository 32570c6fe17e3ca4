import numpy as np
import pytest

from oct_align import align, pipeline
from oct_align.align import (
    AlignConfig,
    _box_sum,
    _ncc_from_stats,
    _ncc_map,
    _shift_table,
    _template_chain,
    _window_stats,
    apply_axial_correction,
    global_ncc,
    local_ncc_map,
    optimize_alignment,
    solve_from_surfaces,
    surface_alignment_loss,
    template_match_align,
)
from oct_align.core import OctVolume, SurfaceSet, search_order
from oct_align.errors import DimensionError, ValidationError
from oct_align.losses import grad_alignment
from oct_align.metrics import motion_error
from oct_align.resample import _interp_rows
from oct_align.synth import (
    MotionSpec,
    PhantomSpec,
    apply_motion,
    generate_phantom,
    simulate_motion,
)


def brute_force_alignment_loss(pos, d):
    total = 0.0
    n_s, n_b, n_a = pos.shape
    for l in range(n_s):
        for b in range(n_b - 1):
            for a in range(n_a):
                total += (
                    (pos[l, b, a] - d[b]) - (pos[l, b + 1, a] - d[b + 1])
                ) ** 2
    return total


class TestSurfaceAlignmentLoss:
    def test_flat_identical_surfaces_zero(self):
        pos = np.full((1, 3, 4), 7.0)
        assert surface_alignment_loss(pos, np.zeros(3)) == 0.0

    def test_displacement_cancels_offset(self):
        # r = (5, 8) with d = (0, 3): the gap is explained by the motion
        pos = np.array([[[5.0], [8.0]]])
        assert surface_alignment_loss(pos, np.array([0.0, 3.0])) == 0.0

    def test_matches_brute_force(self, rng):
        pos = rng.uniform(1, 30, size=(2, 3, 4))
        d = rng.uniform(-5, 5, size=3)
        got = surface_alignment_loss(pos, d)
        assert np.isclose(got, brute_force_alignment_loss(pos, d), rtol=1e-12)

    def test_gauge_invariance_exact_on_dyadic_values(self, rng):
        # quarters plus an exactly representable constant: no rounding, so
        # the invariance is bitwise
        pos = rng.integers(4, 120, size=(2, 4, 5)) / 4.0
        d = rng.integers(-40, 40, size=4) / 4.0
        base = surface_alignment_loss(pos, d)
        assert surface_alignment_loss(pos, d + 2.5) == base
        assert surface_alignment_loss(pos, d - 7.0) == base

    def test_length_mismatch(self, rng):
        with pytest.raises(DimensionError):
            surface_alignment_loss(rng.uniform(1, 5, (1, 3, 2)), np.zeros(4))


class TestLocalNcc:
    def test_identical_textured_pair_scores_one_per_pixel(self, rng):
        img = rng.normal(size=(16, 16))
        score = local_ncc_map(img, img, window=5)
        assert score.shape == (12, 12)
        assert np.allclose(score, 1.0, atol=1e-9)

    def test_constant_image_contributes_zero(self, rng):
        a = np.ones((12, 12))
        b = rng.normal(size=(12, 12))
        assert local_ncc_map(a, b, window=3).sum() == 0.0

    def test_matches_brute_force_windowed_computation(self, rng):
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8)) + 0.4 * a
        n = 3
        got = local_ncc_map(a, b, window=n)
        expect = np.zeros((6, 6))
        for i in range(6):
            for j in range(6):
                wa = a[i:i + n, j:j + n].ravel()
                wb = b[i:i + n, j:j + n].ravel()
                ca = wa - wa.mean()
                cb = wb - wb.mean()
                va, vb = (ca * ca).sum(), (cb * cb).sum()
                if va / n**2 < 1e-5 or vb / n**2 < 1e-5:
                    continue
                expect[i, j] = (ca * cb).sum() ** 2 / (va * vb)
        assert np.allclose(got, expect, rtol=1e-8, atol=1e-12)

    def test_affine_intensity_invariance(self, rng):
        a = rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16))
        base = local_ncc_map(a, b, window=5)
        scaled = local_ncc_map(3.0 * a + 2.0, b, window=5)
        assert np.allclose(base, scaled, rtol=1e-8, atol=1e-10)


class TestBoxSum:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_matches_brute_force(self, rng, n):
        img = rng.normal(size=(14, 17))
        got = _box_sum(img, n)
        expect = np.array([[img[i:i + n, j:j + n].sum() for j in range(17 - n + 1)]
                           for i in range(14 - n + 1)])
        assert got.shape == (14 - n + 1, 17)
        assert np.allclose(got[:, :17 - n + 1], expect, rtol=0, atol=1e-12)
        assert not got[:, 17 - n + 1:].any()

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_slice_of_sums_is_sums_of_slice_bitwise(self, rng, n):
        img = rng.normal(size=(60, 20)) * 1e3 + 0.1
        full = _box_sum(img, n)
        for lo in range(0, 25, 3):
            rows = _box_sum(img[lo:lo + 30], n)
            assert np.array_equal(rows, full[lo:lo + 30 - n + 1])
            w = 12
            cols = _box_sum(img[:, lo // 3:lo // 3 + w], n)
            assert np.array_equal(cols[:, :w - n + 1],
                                  full[:, lo // 3:lo // 3 + w - n + 1])


class TestShiftTable:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_candidate_equals_direct_evaluation_bitwise(self, seed):
        vol, _ = generate_phantom(PhantomSpec(n_b=3, n_a=32, n_r=48, seed=seed))
        data = vol.data.astype(np.float64)
        n, radius = 9, 15
        left = _window_stats(_interp_rows(data[0], 2.5).T, n)
        right = _window_stats(_interp_rows(data[2], -4.0).T, n)
        table = _shift_table(data[1], n, radius)
        for k in range(-radius, radius + 1):
            direct = _window_stats(_interp_rows(data[1], float(k)).T, n)
            read = table(k)
            for a, b in zip(read, direct):
                assert np.array_equal(a, b)
            for nb in (left, right):
                assert np.array_equal(_ncc_map(nb, read, n), _ncc_map(nb, direct, n))
                assert _ncc_from_stats(nb, read, n) == _ncc_from_stats(nb, direct, n)
                assert _ncc_from_stats(read, nb, n) == _ncc_from_stats(direct, nb, n)


class TestSolveFromSurfaces:
    def test_aligned_surfaces_give_zero(self):
        pos = np.full((2, 4, 3), 9.0)
        d = solve_from_surfaces(SurfaceSet(pos))
        assert np.allclose(d.axial, 0.0, atol=1e-12)

    def test_recovers_axial_truth_exactly(self, rng):
        vol, surf = generate_phantom(PhantomSpec(seed=1))
        ax = rng.uniform(-15, 15, vol.n_b)
        motion = MotionSpec(ax, np.zeros(vol.n_b, dtype=np.int64), (0,))
        _, csurf = apply_motion(vol, surf, motion)
        d = solve_from_surfaces(csurf)
        est = d.axial - d.axial.mean()
        tru = ax - ax.mean()
        assert np.abs(est - tru).max() < 1e-9

    def test_beats_random_perturbations(self, rng):
        pos = rng.uniform(5, 40, size=(2, 5, 6))
        s = SurfaceSet(pos)
        d = solve_from_surfaces(s).axial
        best = surface_alignment_loss(pos, d)
        tru = rng.uniform(-3, 3, 5)
        assert best <= surface_alignment_loss(pos, tru) + 1e-9
        for _ in range(1000):
            assert best <= surface_alignment_loss(pos, d + rng.normal(0, 0.5, 5)) + 1e-9

    def test_solution_zeroes_the_gradient(self, rng):
        pos = rng.uniform(5, 40, size=(3, 6, 4))
        d = solve_from_surfaces(SurfaceSet(pos)).axial
        g = grad_alignment(pos, d)
        assert np.abs(g).max() < 1e-8

    def test_needs_two_b_scans(self):
        with pytest.raises(DimensionError):
            solve_from_surfaces(SurfaceSet(np.full((1, 1, 4), 5.0)))

    def test_needs_a_surface(self):
        with pytest.raises(ValidationError):
            solve_from_surfaces(SurfaceSet(np.zeros((0, 4, 3))))


class TestOptimizeAlignment:
    def test_motion_free_phantom_is_a_fixed_point(self):
        vol, surf = generate_phantom(PhantomSpec(seed=2))
        d = optimize_alignment(vol, surf)
        assert np.abs(d.axial).max() <= 0.5

    def test_objective_monotone_across_sweeps(self):
        vol, surf = generate_phantom(PhantomSpec(seed=3))
        from oct_align.synth import simulate_motion

        cvol, csurf, _ = simulate_motion(vol, surf, seed=21)
        trace = []
        optimize_alignment(cvol, csurf, trace=trace)
        assert len(trace) >= 2
        diffs = np.diff(trace)
        assert (diffs <= 1e-9 * (1 + np.abs(trace[:-1]))).all()

    def test_unsupervised_mode_runs_and_recovers(self):
        vol, surf = generate_phantom(PhantomSpec(seed=4))
        from oct_align.synth import simulate_motion

        cvol, _, motion = simulate_motion(vol, surf, seed=31)
        d = optimize_alignment(cvol, None)
        err = motion_error(d, motion)[0]
        assert err < 5.0

    def test_surfaces_volume_mismatch(self):
        vol, _ = generate_phantom(PhantomSpec(seed=0))
        with pytest.raises(DimensionError):
            optimize_alignment(vol, SurfaceSet(np.full((1, 5, 4), 3.0)))

    # rint(d - d[0]) of the descent on simulate_motion(seed + 100) of
    # PhantomSpec(seed), recorded before the candidate table replaced direct
    # resampling; on these seeds no B-scan lies within 2e-3 px of a rounding
    # boundary, so only a changed integer choice can change a literal
    GOLDEN = {
        (11, "supervised"): [0, 0, 11, 15, 18, -1, 19, 24, 3, 1, 6, 17, -2, 8, 7, 24,
                             5, 14, 18, -2, 21, 11, 22, 9],
        (11, "unsupervised"): [0, 0, 11, 15, 18, -1, 19, 24, 3, 1, 5, 17, -3, 7, 6, 22,
                               3, 12, 16, -3, 19, 9, 21, 8],
        (12, "supervised"): [0, 22, 21, -3, -1, 11, 21, 4, 6, 18, -2, 21, 26, 20, 26, 12,
                             2, 21, 26, 19, 0, 6, 3, 19],
        (12, "unsupervised"): [0, 22, 21, -2, 0, 12, 22, 5, 7, 19, -1, 22, 27, 22, 28, 14,
                               4, 23, 28, 21, 1, 7, 4, 20],
        (16, "supervised"): [0, 21, 24, 24, 10, 13, 4, 11, 4, 10, 4, 0, 23, 23, -4, 3,
                             23, 14, 13, -1, 18, 15, 1, 20],
        (16, "unsupervised"): [0, 21, 24, 24, 11, 14, 5, 12, 5, 11, 5, 1, 25, 24, -3, 5,
                               25, 16, 15, 1, 20, 17, 3, 22],
    }

    @pytest.mark.parametrize("seed", [11, 12, 16])
    def test_golden_integer_shifts(self, seed):
        vol, surf = generate_phantom(PhantomSpec(seed=seed))
        cvol, csurf, _ = simulate_motion(vol, surf, seed=seed + 100)
        for mode, s in (("supervised", csurf), ("unsupervised", None)):
            d = optimize_alignment(cvol, s).axial
            assert np.rint(d - d[0]).astype(int).tolist() == self.GOLDEN[seed, mode]

    def test_given_chain_matches_computed_chain(self):
        vol, surf = generate_phantom(PhantomSpec(n_b=10, n_a=32, n_r=64, seed=5))
        cvol, _, _ = simulate_motion(vol, surf, seed=6)
        cfg = AlignConfig(search_radius=15)
        chain = _template_chain(cvol.data.astype(np.float64), 15)
        keep = chain.copy()
        got = optimize_alignment(cvol, None, cfg, chain=chain)
        assert np.array_equal(chain, keep)  # the caller's chain is not modified
        assert np.array_equal(got.axial, optimize_alignment(cvol, None, cfg).axial)


class TestTemplateMatch:
    def test_identical_b_scans_give_zero(self, rng):
        img = rng.normal(size=(12, 20))
        vol = OctVolume(np.stack([img, img, img]))
        d = template_match_align(vol)
        assert np.allclose(d.axial, 0.0)

    def test_integer_corruption_recovered_exactly(self, rng):
        spec = PhantomSpec(seed=8, speckle_sigma=0.0, noise_sigma=0.0)
        vol, surf = generate_phantom(spec)
        ax = rng.integers(-10, 11, vol.n_b).astype(float)
        motion = MotionSpec(ax, np.zeros(vol.n_b, dtype=np.int64), (0,))
        cvol, _ = apply_motion(vol, surf, motion)
        d = template_match_align(cvol)
        est = d.axial - d.axial.mean()
        tru = ax - ax.mean()
        assert np.abs(est - tru).max() < 1e-9

    def test_matches_exhaustive_shift_grid(self):
        # every step of the chain must pick the argmax of global NCC over the
        # shift grid (2x the radius), scored on directly resampled B-scans
        vol, _ = generate_phantom(PhantomSpec(seed=9))
        cfg = AlignConfig(search_radius=6)
        d = template_match_align(vol, cfg)
        data = vol.data.astype(np.float64)
        chain = np.zeros(vol.n_b)
        for b in range(1, vol.n_b):
            template = _interp_rows(data[b - 1], chain[b - 1])
            best_v = -np.inf
            for s in search_order(12):
                v = global_ncc(template, _interp_rows(data[b], float(s)))
                if v > best_v:
                    best_v, chain[b] = v, s
        assert np.array_equal(d.axial, chain - chain.mean())

    def test_flat_template_keeps_shift_zero(self, rng):
        img = rng.normal(size=(12, 20))
        data = np.stack([np.ones((12, 20)), img, img])
        chain = _template_chain(data, 3)
        assert chain[1] == 0.0 and chain[2] == 0.0


def test_run_volume_computes_the_chain_once(monkeypatch):
    params = (3, 1, 0, (10, 32, 64), 3, 15, 30, {})
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _template_chain(*args, **kwargs)

    monkeypatch.setattr(align, "_template_chain", counted)
    monkeypatch.setattr(pipeline, "_template_chain", counted)
    record = pipeline.run_volume(params)["record"]
    assert len(calls) == 1
    monkeypatch.undo()

    vol, surf = generate_phantom(PhantomSpec(n_b=10, n_a=32, n_r=64, n_layers=3,
                                             seed=pipeline.phantom_seed(3, 1)))
    cvol, csurf, motion = simulate_motion(vol, surf, seed=pipeline.motion_seed(3, 1, 0))
    cfg = AlignConfig(search_radius=15)
    assert record["axial_err_px"] == {
        "supervised": motion_error(optimize_alignment(cvol, csurf, cfg), motion)[0],
        "unsupervised": motion_error(optimize_alignment(cvol, None, cfg), motion)[0],
        "template": motion_error(template_match_align(cvol, cfg), motion)[0],
    }


class TestNccPairedComparison:
    def test_template_not_better_than_supervised_on_most_seeds(self, suite):
        report, _ = suite
        worse_or_equal = sum(
            1
            for row in report["per_phantom"]
            if row["axial_template_mean_px"] >= row["axial_supervised_mean_px"]
        )
        assert worse_or_equal >= 15


def test_apply_axial_correction_consistency(rng):
    vol, surf = generate_phantom(PhantomSpec(seed=1))
    ax = rng.uniform(-5, 5, vol.n_b)
    motion = MotionSpec(ax, np.zeros(vol.n_b, np.int64), (0,))
    cvol, csurf = apply_motion(vol, surf, motion)
    d = solve_from_surfaces(csurf)
    v2, s2 = apply_axial_correction(cvol, csurf, d)
    # corrected surfaces equal the originals up to the removed global shift
    resid = s2.positions - surf.positions
    assert np.ptp(resid) < 1e-9


def test_global_ncc_basics(rng):
    img = rng.normal(size=(10, 12))
    assert np.isclose(global_ncc(img, img), 1.0)
    assert global_ncc(np.ones((4, 4)), img[:4, :4]) == 0.0
    assert np.isclose(global_ncc(img, 2.5 * img + 1.0), 1.0)
