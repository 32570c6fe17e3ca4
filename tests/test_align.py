import collections
import dataclasses
import math

import numpy as np
import pytest

from oct_align import align, pipeline
from oct_align.align import (
    NCC_WINDOW,
    TOL,
    VARIANCE_EPS,
    AlignConfig,
    _box_buffers,
    _box_sum,
    _chain_bounds,
    _ncc_from_stats,
    _ncc_buffers,
    _ncc_map,
    _screen_slack,
    _screen_stats,
    _screened_sum,
    _shift_table,
    _template_chain,
    _window_stats,
    apply_axial_correction,
    global_ncc,
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


def local_ncc_map(img_a, img_b, window):
    """Per-pixel squared NCC of two float64 images over n-by-n windows:
    ``_ncc_map`` of their ``_window_stats``, cropped to the pixels whose
    window lies fully inside the image (the descent's similarity map)."""
    m = _ncc_map(_window_stats(img_a, window), _window_stats(img_b, window), window)
    return m[:, :img_a.shape[1] - window + 1]


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


def reference_box_sum(img, n):
    """The allocating box sum the buffered kernel replaced: doubling partial
    sums added in the same order, then copied into full-width rows."""
    def run_sums(x):
        n_out = x.shape[0] - n + 1
        acc, offset, part, width = None, 0, x, 1
        while True:
            if n & width:
                piece = part[offset:offset + n_out]
                acc = piece if acc is None else acc + piece
                offset += width
            if 2 * width > n:
                return acc
            part = part[:-width] + part[width:]
            width *= 2

    rows = run_sums(img)
    flat = run_sums(rows.ravel())
    out = np.empty(rows.shape)
    out.ravel()[:flat.size] = flat
    out[:, img.shape[1] - n + 1:] = 0.0
    return out


def reference_ncc_sum(img_a, img_b, n):
    """The masked-divide NCC sum the safe-variance kernel replaced."""
    n2 = float(n * n)

    def stats(img):
        s = reference_box_sum(img, n)
        var = reference_box_sum(img * img, n) - s * s / n2
        return s, var, var >= VARIANCE_EPS * n2

    s_a, var_a, ok_a = stats(img_a)
    s_b, var_b, ok_b = stats(img_b)
    cross = reference_box_sum(img_a * img_b, n)
    cross -= s_a * s_b / n2
    cross *= cross
    out = np.zeros(cross.shape)
    np.divide(cross, var_a * var_b, out=out, where=ok_a & ok_b)
    return float(out.sum())


class TestBoxSum:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_matches_brute_force(self, rng, n):
        img = rng.normal(size=(14, 17))
        got = _box_sum(img, n)
        expect = np.array([[img[i:i + n, j:j + n].sum() for j in range(17 - n + 1)]
                           for i in range(14 - n + 1)])
        assert got.shape == (14 - n + 1, 17)
        assert np.allclose(got[:, :17 - n + 1], expect, rtol=0, atol=1e-12)
        assert not got[:, 17 - n + 1:].any()
        # the same sums, bit for bit, as the allocating kernel, also when the
        # work arrays are reused and hold an earlier image's partial sums
        bufs = _box_buffers(img.shape, n)
        for x in (img * 1e3 + 0.1, img):
            assert np.array_equal(_box_sum(x, n, bufs), reference_box_sum(x, n))

    @pytest.mark.parametrize("n", range(2, 12))
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
        data[1, :, 20:34] = data[1, 0, 20]  # flat rows: windows the mask drops
        radius = 15
        for n in range(3, 12):
            left = _window_stats(_interp_rows(data[0], 2.5).T, n)
            right = _window_stats(_interp_rows(data[2], -4.0).T, n)
            table, screen_at = _shift_table(data[1], n, radius)
            bufs = _ncc_buffers((48, 32), n)  # reused by every call below
            masked = 0
            for k in range(-radius, radius + 1):
                direct = _window_stats(_interp_rows(data[1], float(k)).T, n)
                read = table(k)
                for a, b in zip(read, direct):
                    assert np.array_equal(a, b)
                # the screen reads float32 copies and prefix-summed conditioning
                read32, kappa = screen_at(k)
                want32, want_kappa = _screen_stats(direct, n)
                for a, b in zip(read32, want32):
                    assert a.dtype == np.float32 and np.array_equal(a, b)
                assert kappa == pytest.approx(want_kappa, rel=1e-12)
                masked += int(np.isinf(read[2][:, :32 - n + 1]).sum())
                for nb in (left, right):
                    assert np.array_equal(_ncc_map(nb, read, n), _ncc_map(nb, direct, n))
                    for a, b in ((nb, read), (read, nb)):
                        want = reference_ncc_sum(a[0], b[0], n)
                        assert _ncc_from_stats(a, b, n) == want
                        assert _ncc_from_stats(a, b, n, bufs) == want
            assert masked > 0


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
        cvol, _, _ = simulate_motion(vol, surf, seed=26)
        trace = []
        optimize_alignment(cvol, None, trace=trace)
        assert len(trace) >= 3 and trace[1] < trace[0]  # the first sweep moved
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
        # N_B agrees, N_A does not
        with pytest.raises(DimensionError, match="N_A"):
            optimize_alignment(vol, SurfaceSet(np.full((1, vol.n_b, vol.n_a - 5), 3.0)))

    def test_config_has_only_the_set_options(self):
        assert [f.name for f in dataclasses.fields(AlignConfig)] == ["search_radius", "max_iters"]
        with pytest.raises(ValidationError, match="search_radius"):
            AlignConfig(search_radius=0)
        with pytest.raises(ValidationError, match="max_iters"):
            AlignConfig(max_iters=0)

    def test_supervised_is_the_closed_form(self):
        vol, surf = generate_phantom(PhantomSpec(n_b=10, n_a=32, n_r=64, seed=6))
        cvol, csurf, _ = simulate_motion(vol, surf, seed=7)
        trace = []
        got = optimize_alignment(cvol, csurf, trace=trace)
        want = solve_from_surfaces(csurf)
        assert np.array_equal(got.axial, want.axial)
        assert np.array_equal(got.transverse, want.transverse)
        assert trace == [surface_alignment_loss(csurf, want.axial)]  # no sweep ran
        # the volume checks come before the surfaces' N_B check
        with pytest.raises(DimensionError, match="OctVolume"):
            optimize_alignment(cvol.data, csurf.positions[:, :3])
        with pytest.raises(DimensionError, match="NCC window"):
            optimize_alignment(OctVolume(cvol.data[:, :4]), csurf.positions[:, :3])

    # rint(d - d[0]) of the unsupervised descent on simulate_motion(seed + 100)
    # of PhantomSpec(seed), recorded before the candidate table replaced
    # direct resampling; on these seeds no B-scan lies within 2e-3 px of a
    # rounding boundary, so only a changed integer choice can change a literal
    GOLDEN = {
        11: [0, 0, 11, 15, 18, -1, 19, 24, 3, 1, 5, 17, -3, 7, 6, 22,
             3, 12, 16, -3, 19, 9, 21, 8],
        12: [0, 22, 21, -2, 0, 12, 22, 5, 7, 19, -1, 22, 27, 22, 28, 14,
             4, 23, 28, 21, 1, 7, 4, 20],
        16: [0, 21, 24, 24, 11, 14, 5, 12, 5, 11, 5, 1, 25, 24, -3, 5,
             25, 16, 15, 1, 20, 17, 3, 22],
    }

    @pytest.mark.parametrize("seed", [11, 12, 16])
    def test_golden_integer_shifts(self, seed):
        vol, surf = generate_phantom(PhantomSpec(seed=seed))
        cvol, csurf, _ = simulate_motion(vol, surf, seed=seed + 100)
        assert np.array_equal(optimize_alignment(cvol, csurf).axial,
                              solve_from_surfaces(csurf).axial)
        d = optimize_alignment(cvol, None).axial
        assert np.rint(d - d[0]).astype(int).tolist() == self.GOLDEN[seed]

    def test_given_chain_matches_computed_chain(self):
        vol, surf = generate_phantom(PhantomSpec(n_b=10, n_a=32, n_r=64, seed=5))
        cvol, _, _ = simulate_motion(vol, surf, seed=6)
        cfg = AlignConfig(search_radius=15)
        chain = _template_chain(cvol.data.astype(np.float64), 15)
        keep = chain.copy()
        got = optimize_alignment(cvol, None, cfg, chain=chain)
        assert np.array_equal(chain, keep)  # the caller's chain is not modified
        assert np.array_equal(got.axial, optimize_alignment(cvol, None, cfg).axial)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the descent searches the absolute "
                       "integers, and leaves this warm start off the integer grid unmoved")
    def test_a_warm_start_half_a_pixel_off_the_grid_still_moves(self):
        # the objective does not see a constant added to every displacement,
        # but the descent does: this item's template chain has an odd max + min,
        # so its midrange-centred warm start lies 0.5 px off the integer grid,
        # and the descent leaves every B-scan there (a constant added to chain=
        # is removed by the centring, so chain + 0.5 is the same warm start)
        vol, surf = generate_phantom(PhantomSpec(n_b=8, n_a=24, n_r=64, seed=0))
        cvol, _, _ = simulate_motion(vol, surf, seed=40)
        chain = _template_chain(cvol.data.astype(np.float64), 15)
        on_grid = chain.copy()
        on_grid[chain.argmin()] -= 1.0  # one px lower: the midrange moves 0.5 px onto the grid
        assert (chain.max() + chain.min()) % 2 == 1
        traces = {}
        for name, start in (("on_grid", on_grid), ("off_grid", chain + 0.5)):
            traces[name] = []
            optimize_alignment(cvol, None, trace=traces[name], chain=start)
        assert traces["on_grid"][-1] < traces["on_grid"][0]
        assert traces["off_grid"][-1] < traces["off_grid"][0]


def exhaustive_descent(volume, cfg, trace, chain=None):
    """The coordinate descent with nothing skipped or carried: every integer
    candidate and both neighbors resampled directly at every step, and the
    objective recomputed from scratch before the first sweep and after each."""
    data = volume.data.astype(np.float64)
    n_b, n, radius = data.shape[0], NCC_WINDOW, cfg.search_radius

    def stats_at(b, x):
        return _window_stats(_interp_rows(data[b], x).T, n)

    d = _template_chain(data, radius) if chain is None else np.array(chain, dtype=float)
    d -= 0.5 * (d.max() + d.min())
    np.clip(d, -radius, radius, out=d)

    def local(b, x, left, right):
        st = stats_at(b, x)
        val = 0.0
        if left is not None:
            val -= _ncc_from_stats(left, st, n)
        if right is not None:
            val -= _ncc_from_stats(st, right, n)
        return val

    def full_objective():
        total = 0.0
        for b in range(n_b - 1):
            total -= _ncc_from_stats(stats_at(b, d[b]), stats_at(b + 1, d[b + 1]), n)
        return total

    obj = full_objective()
    trace.append(obj)
    for _ in range(cfg.max_iters):
        for b in range(n_b):
            left = stats_at(b - 1, d[b - 1]) if b > 0 else None
            right = stats_at(b + 1, d[b + 1]) if b < n_b - 1 else None
            best_x = float(d[b])
            best_v = local(b, best_x, left, right)
            grid = {}
            for k in range(-radius, radius + 1):
                grid[k] = v = best_v if k == best_x else local(b, float(k), left, right)
                if v < best_v:
                    best_v, best_x = v, float(k)
            if best_x == int(best_x) and abs(best_x) < radius:
                k0 = int(best_x)
                f_m, f_0, f_p = grid[k0 - 1], grid[k0], grid[k0 + 1]
                curv = f_p - 2.0 * f_0 + f_m
                if curv > 0:
                    xv = k0 + float(np.clip(0.5 * (f_m - f_p) / curv, -0.5, 0.5))
                    v = local(b, xv, left, right)
                    if v < best_v:
                        best_x = xv
            d[b] = best_x
        new_obj = full_objective()
        trace.append(new_obj)
        decrease, obj = obj - new_obj, new_obj
        if decrease <= TOL * max(1.0, abs(obj)):
            break
    return d - d.mean()


def raw_screen_sum(bufs32):
    """The float32 sum of the normalised map that ``_screened_sum`` leaves
    in its output buffer, with no E and no rounding factor."""
    flat = bufs32[-1].ravel()
    return float(np.einsum("i,i->", flat, flat))


@pytest.fixture()
def table_reads(monkeypatch):
    """The candidates read from each B-scan's table, one list per table."""
    reads = []

    def recorded(img, n, radius):
        at, screen_at = _shift_table(img, n, radius)
        seen = []
        reads.append(seen)

        def read(k):
            seen.append(k)
            return at(k)

        return read, screen_at

    monkeypatch.setattr(align, "_shift_table", recorded)
    return reads


class TestBoundedDescent:
    """Skipping candidates whose screened lower bound is above the running
    best must change no chosen shift: the descent equals the exhaustive one
    bit for bit."""

    # the ids keep the case names from when the test also varied w_smooth
    # and ran the (since deleted) supervised descent
    @pytest.mark.parametrize("seed,scale,offset", [
        pytest.param(0, 1.0, 0.0, id="0-1.0-0.0-1.0-False"),
        pytest.param(1, 1.0, 0.0, id="1-1.0-0.0-1.0-False"),
        pytest.param(3, 1e3, 500.0, id="3-1000.0-500.0-1.0-False"),
    ])
    def test_equals_exhaustive_descent(self, table_reads, seed, scale, offset):
        vol, surf = generate_phantom(PhantomSpec(n_b=8, n_a=24, n_r=64, seed=seed))
        cvol, _, _ = simulate_motion(vol, surf, seed=seed + 40)
        cvol = OctVolume(cvol.data * scale + offset)
        cfg = AlignConfig()
        got_trace, want_trace = [], []
        got = optimize_alignment(cvol, None, cfg, trace=got_trace).axial
        want = exhaustive_descent(cvol, cfg, want_trace)
        assert np.array_equal(got, want)
        assert got_trace == want_trace
        if scale == 1.0:
            # the float32 screen did skip candidates
            assert sum(len(r) for r in table_reads) < len(table_reads) * 31 // 2

    def test_equals_exhaustive_descent_where_ncc_is_near_its_cap(self, rng, table_reads):
        # B-scans are affine copies of one texture under integer motion, so the
        # true shift scores close to the window count, where the float32 screen
        # has the least room; the warm start puts B-scans 1, 4 and 7 2 px off
        # the truth between correct neighbors, and only a screen that holds
        # there keeps the descent exact
        texture = rng.uniform(size=(24, 64))
        axial = np.array([0, 4, -3, 7, 2, -5, 3, 1], dtype=float)
        data = np.stack([(1.0 + 0.2 * b) * _interp_rows(texture, -axial[b]) + 0.1 * b
                         for b in range(8)])
        vol = OctVolume(data)
        chain = axial + 2.0 * (np.arange(8) % 3 == 1)
        got = optimize_alignment(vol, None, chain=chain).axial
        want = exhaustive_descent(vol, AlignConfig(), [], chain)
        assert np.array_equal(got, want)
        assert np.abs(np.diff(want) - np.diff(axial)).max() < 0.5  # the texture won
        assert sum(len(r) for r in table_reads) < len(table_reads) * 31  # it did skip

    @pytest.mark.parametrize("scale", [1e9, 1e10])
    def test_equals_exhaustive_descent_where_the_screen_is_off(self, table_reads, scale):
        # at n^2 M^2 >= 2**63, beyond the screen's derivation, the slack is
        # inf and the descent must score every candidate without screening
        vol, surf = generate_phantom(PhantomSpec(n_b=6, n_a=24, n_r=64, seed=2))
        cvol, _, _ = simulate_motion(vol, surf, seed=42)
        cvol = OctVolume(cvol.data * scale)
        cfg = AlignConfig(max_iters=2)
        assert 81.0 * float(np.abs(cvol.data).max()) ** 2 >= 2.0 ** 63
        assert _screen_slack(9, float(np.abs(cvol.data).max()), 56 * 24) == np.inf
        got_trace, want_trace = [], []
        got = optimize_alignment(cvol, None, cfg, trace=got_trace).axial
        want = exhaustive_descent(cvol, cfg, want_trace)
        assert np.array_equal(got, want)
        assert got_trace == want_trace
        # every integer but the current value, once per B-scan and sweep
        assert all(len(set(r)) >= 30 for r in table_reads)

    @pytest.mark.parametrize("case", ["phantom", "scaled", "near_eps"])
    def test_screen_bounds_every_candidate(self, rng, case):
        # S64 <= S32 / (1 - m 2**-24) + E for every table candidate against
        # both neighbors: on a phantom, on the phantom x1e3 + 500, and on
        # low-contrast B-scans whose windows sit just above VARIANCE_EPS
        # (conditioning near 1e4)
        vol, _ = generate_phantom(PhantomSpec(n_b=3, n_a=32, n_r=48, seed=7))
        data = vol.data.astype(np.float64)
        if case == "scaled":
            data = data * 1e3 + 500.0
        elif case == "near_eps":
            noise = rng.normal(size=(32, 48))
            data = 0.5 + np.sqrt(VARIANCE_EPS) * np.stack(
                [1.1 * noise, 1.1 * noise + 0.3 * rng.normal(size=noise.shape),
                 1.05 * rng.normal(size=noise.shape)])
        max_abs = float(np.abs(data).max())
        radius, over, near = 15, 0.0, 0
        for n in (3, 9):
            bufs32 = _ncc_buffers((48, 32), n, np.float32)
            slack = _screen_slack(n, max_abs, bufs32[-1].size)
            table, screen_at = _shift_table(data[1], n, radius)
            nbs = [_window_stats(_interp_rows(data[0], 2.5).T, n),
                   _window_stats(_interp_rows(data[2], -4.0).T, n)]
            for nb in nbs:
                var = nb[2][:, :32 - n + 1] / (n * n)
                near += int(((var >= VARIANCE_EPS) & (var < 1.3 * VARIANCE_EPS)).sum())
            screens = [_screen_stats(nb, n) for nb in nbs]
            for k in range(-radius, radius + 1):
                cand, cand32 = table(k), screen_at(k)
                for (a, b), (a32, b32) in (((nbs[0], cand), (screens[0], cand32)),
                                           ((cand, nbs[1]), (cand32, screens[1]))):
                    exact = _ncc_from_stats(a, b, n)
                    assert exact <= _screened_sum(a32, b32, n, slack, bufs32)
                    # the raw float32 sum alone (no E, no factor) would not
                    # bound it
                    over = max(over, exact - raw_screen_sum(bufs32))
        assert over > 0.0
        if case == "near_eps":
            assert near > 100  # the windows the test is about do occur

    def test_screen_bounds_every_candidate_at_clinical_size(self):
        # one 256x192 B-scan pair, all 31 candidates on both sides: 45,632
        # windows per map (47,104 entries with the zero columns), where the
        # float32 sum's rounding factor 1 / (1 - m 2**-24) is 1.0028
        vol, surf = generate_phantom(PhantomSpec(n_b=2, n_a=256, n_r=192, seed=5))
        cvol, _, _ = simulate_motion(vol, surf, seed=45)
        data = cvol.data.astype(np.float64)
        n, radius = NCC_WINDOW, 15
        bufs32 = _ncc_buffers((192, 256), n, np.float32)
        assert (192 - n + 1) * (256 - n + 1) == 45632
        slack = _screen_slack(n, float(np.abs(data).max()), bufs32[-1].size)
        table, screen_at = _shift_table(data[1], n, radius)
        nb = _window_stats(data[0].T, n)
        screen_nb = _screen_stats(nb, n)
        short = 0
        for k in range(-radius, radius + 1):
            cand, cand32 = table(k), screen_at(k)
            for (a, b), (a32, b32) in (((nb, cand), (screen_nb, cand32)),
                                       ((cand, nb), (cand32, screen_nb))):
                assert _ncc_from_stats(a, b, n) <= _screened_sum(a32, b32, n, slack, bufs32)
                # with E = 0 the bound still covers the exact sum of the
                # squares of the float32 map it leaves: the rounding factor
                # holds whatever order the float32 sum adds in
                no_e = _screened_sum(a32, b32, n, 0.0, bufs32)
                v = bufs32[-1].astype(np.float64).ravel()
                squares = math.fsum(v * v)
                assert squares <= no_e
                short += raw_screen_sum(bufs32) < squares
        assert short > 0  # the float32 sum alone does fall short of it

    def test_a_constant_neighbor_screens_to_e(self):
        # every window of a constant B-scan is masked, so its inverse roots
        # are 0, every entry of the float32 map is exactly 0, and the bound
        # is E (1 + 2**-40) with the constant B-scan's conditioning 0
        vol, _ = generate_phantom(PhantomSpec(n_b=2, n_a=32, n_r=48, seed=7))
        n = NCC_WINDOW
        flat = _window_stats(np.full((48, 32), 0.7), n)
        cand = _window_stats(vol.data[1].astype(np.float64).T, n)
        assert np.isinf(flat[2]).all()
        screen_flat, screen_cand = _screen_stats(flat, n), _screen_stats(cand, n)
        assert screen_flat[1] == 0.0 and not screen_flat[0][2].any()
        bufs32 = _ncc_buffers((48, 32), n, np.float32)
        slack = _screen_slack(n, 1.0, bufs32[-1].size)
        want = slack * screen_cand[1] * (1.0 + 2.0 ** -40)
        for (a, b), (a32, b32) in (((flat, cand), (screen_flat, screen_cand)),
                                   ((cand, flat), (screen_cand, screen_flat))):
            assert _screened_sum(a32, b32, n, slack, bufs32) == want
            assert raw_screen_sum(bufs32) == 0.0
            assert _ncc_from_stats(a, b, n) == 0.0

    def test_ties_go_to_the_first_candidate_in_search_order(self):
        # B-scan 1 is depth-periodic (blips every 10 rows, 20 ... 50) and
        # B-scan 0 has one blip at row 35: its shifts -15, -5, 5, 15 each put
        # the blip on one of B-scan 1's, where every scored window is
        # identical (score exactly 1.0) and every other window is masked, so
        # the four NCC sums tie exactly in float64; -R..R picks -15
        data = np.zeros((2, 16, 64))
        data[0][:, 35] = 1.0
        data[1][:, 20:51:10] = 1.0
        vol = OctVolume(data)
        chain = np.zeros(2)  # a flat warm start, d = 0
        cfg = AlignConfig(max_iters=1)
        table, _ = _shift_table(data[0], 9, 15)
        right = _window_stats(data[1].T, 9)
        sums = {k: _ncc_from_stats(table(k), right, 9) for k in (-15, -5, 5, 15)}
        assert set(sums.values()) == {72.0}
        got = optimize_alignment(vol, None, cfg, chain=chain).axial
        assert np.array_equal(got, exhaustive_descent(vol, cfg, [], chain))
        assert got[1] - got[0] == 15.0

    def test_skipped_parabola_neighbors_are_scored_on_demand(self, table_reads):
        # on this item the screen skips both neighbors of one B-scan's best
        # integer k0 during the scan, so the refinement reads k0 - 1 and
        # k0 + 1 from the table after k0 itself
        vol, surf = generate_phantom(PhantomSpec(n_b=8, n_a=24, n_r=64, seed=1))
        cvol, _, _ = simulate_motion(vol, surf, seed=41)
        cfg = AlignConfig(max_iters=1)
        got = optimize_alignment(cvol, None, cfg).axial
        late = [r for r in table_reads if r != sorted(r)]
        assert late
        assert all(r[-2:] == [r[-3] - 1, r[-3] + 1] for r in late)
        assert np.array_equal(got, exhaustive_descent(cvol, cfg, []))

    def test_parabola_neighbors_scored_in_the_scan_or_current_are_scored_again(self, table_reads):
        # the refinement scores both neighbors of the best integer k0 after
        # the scan: on this item B-scan 4's neighbor -11 was scored in the
        # scan too, and B-scan 7's neighbor 6 is its current value (the warm
        # start), which the scan does not read; the parabola must still see
        # the values of the exhaustive descent, which takes all three from
        # its own scan
        vol, surf = generate_phantom(PhantomSpec(n_b=8, n_a=24, n_r=64, seed=13))
        cvol, _, _ = simulate_motion(vol, surf, seed=53)
        chain = _template_chain(cvol.data.astype(np.float64), 15)
        got_trace, want_trace = [], []
        got = optimize_alignment(cvol, None, trace=got_trace, chain=chain).axial
        want = exhaustive_descent(cvol, AlignConfig(), want_trace, chain)
        assert table_reads[4] == [-11, -10, -11, -9]
        assert chain[7] - 0.5 * (chain.max() + chain.min()) == 6.0
        assert table_reads[7] == [7, 6, 8]
        assert np.array_equal(got, want)
        assert got_trace == want_trace


@pytest.fixture()
def sum_calls(monkeypatch):
    """The NCC sums the descent computes, one Counter per sweep, keyed by
    (side, kind): kind "exact" (``_ncc_from_stats``) or "screened"
    (``_screened_sum``), side "left" for ncc(B-scan b - 1, candidate of b)
    in the step of B-scan b and "right" for every other sum.  Each array a
    sum reads is traced to its B-scan; the arrays are kept alive so no id
    is reused."""
    owners, kept = {}, []
    steps, sweeps = [], collections.defaultdict(collections.Counter)

    def own(arr, b):
        kept.append(arr)
        owners[id(arr)] = b

    def owner(img):
        return owners[id(img if img.base is None else img.base)]

    def row_of(img):  # img is one B-scan of the descent's float64 copy
        return (img.ctypes.data - img.base.ctypes.data) // img.nbytes

    def interp_rows(img, x):
        out = _interp_rows(img, x)
        own(out, row_of(img))
        return out

    def shift_table(img, n, radius):
        at, screen_at = _shift_table(img, n, radius)
        b = row_of(img)
        steps.append(b)

        def read(k):
            stats = at(k)
            own(stats[0].base, b)
            return stats

        def screen_read(k):
            screen = screen_at(k)
            own(screen[0][0].base, b)
            return screen

        return read, screen_read

    def screen_stats(stats, n):
        screen = _screen_stats(stats, n)
        own(screen[0][0], owner(stats[0]))
        return screen

    def counted(kind, f):
        def call(a, c, *rest):
            first = a[0] if kind == "exact" else a[0][0]
            side = "left" if steps and owner(first) + 1 == steps[-1] else "right"
            sweeps[max(steps.count(0) - 1, 0)][side, kind] += 1
            return f(a, c, *rest)
        return call

    monkeypatch.setattr(align, "_interp_rows", interp_rows)
    monkeypatch.setattr(align, "_shift_table", shift_table)
    monkeypatch.setattr(align, "_screen_stats", screen_stats)
    monkeypatch.setattr(align, "_ncc_from_stats", counted("exact", _ncc_from_stats))
    monkeypatch.setattr(align, "_screened_sum", counted("screened", _screened_sum))
    return sweeps


class TestCarriedSums:
    """The descent computes each NCC sum once: the objective after a sweep
    is the sum of the left-hand sums it chose, the start objective comes from
    the sums the first sweep holds, and a B-scan's left-hand sums are kept
    across sweeps while its left neighbor stays.  None of it may change a
    shift or a trace value."""

    # seed 1: three sweeps; seed 12: four sweeps, where sweep 2 moves
    # B-scans whose right neighbors then read left-hand sums under a changed
    # left neighbor (the ids keep the case names from when the test also
    # ran the descent without subpixel refinement)
    @pytest.mark.parametrize("seed", [pytest.param(1, id="1-True"),
                                      pytest.param(12, id="12-True")])
    def test_equals_exhaustive_descent_over_several_sweeps(self, seed):
        vol, surf = generate_phantom(PhantomSpec(n_b=8, n_a=24, n_r=64, seed=seed))
        cvol, _, _ = simulate_motion(vol, surf, seed=seed + 40)
        cfg = AlignConfig()
        got_trace, want_trace = [], []
        got = optimize_alignment(cvol, None, cfg, trace=got_trace).axial
        want = exhaustive_descent(cvol, cfg, want_trace)
        assert len(want_trace) >= 4 and want_trace[2] < want_trace[1]  # sweep 2 moved
        assert np.array_equal(got, want)
        assert got_trace == want_trace

    def test_a_confirming_sweep_scores_no_left_hand_sum_again(self, sum_calls):
        vol, surf = generate_phantom(PhantomSpec(n_b=8, n_a=24, n_r=64, seed=6))
        cvol, _, _ = simulate_motion(vol, surf, seed=46)
        trace = []
        optimize_alignment(cvol, None, trace=trace)
        assert len(trace) >= 3 and trace[-1] == trace[-2]  # the last sweep moved nothing
        first, last = sum_calls[0], sum_calls[len(trace) - 2]
        assert len(sum_calls) == len(trace) - 1
        assert first["left", "exact"] > 0 and first["left", "screened"] > 0
        assert last["right", "screened"] > 0
        assert last["left", "exact"] == last["left", "screened"] == 0

    def test_a_moved_left_neighbor_drops_the_kept_sums(self, sum_calls):
        # sweep 1 moves B-scans, so their right neighbors must screen their
        # integer candidates again against the new left neighbor; sweep 2
        # moves nothing and screens no left-hand sum
        vol, surf = generate_phantom(PhantomSpec(n_b=8, n_a=24, n_r=64, seed=12))
        cvol, _, _ = simulate_motion(vol, surf, seed=52)
        trace = []
        optimize_alignment(cvol, None, trace=trace)
        assert len(trace) == 4 and trace[2] < trace[1] and trace[3] == trace[2]
        assert sum_calls[1]["left", "screened"] > 0
        assert sum_calls[2]["left", "screened"] == 0


def exhaustive_chain(data, radius):
    """The template chain with every candidate scored by global_ncc on a
    directly resampled B-scan, first strict maximum in search order."""
    chain = np.zeros(data.shape[0])
    for b in range(1, data.shape[0]):
        template = _interp_rows(data[b - 1], chain[b - 1])
        best_v = -np.inf
        for s in search_order(2 * radius):
            v = global_ncc(template, _interp_rows(data[b], float(s)))
            if v > best_v:
                best_v, chain[b] = v, s
    return chain


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
        # shift grid (2x the radius), scored on directly resampled B-scans,
        # also on a volume x1e3 + 500
        phantom, _ = generate_phantom(PhantomSpec(seed=9))
        for scale, offset in ((1.0, 0.0), (1e3, 500.0)):
            vol = OctVolume(phantom.data * scale + offset)
            d = template_match_align(vol, AlignConfig(search_radius=6))
            chain = exhaustive_chain(vol.data.astype(np.float64), 6)
            assert np.array_equal(d.axial, chain - chain.mean())

    @pytest.mark.parametrize("case", ["phantom", "scaled", "near_eps"])
    def test_screen_error_bound_holds_for_every_candidate(self, rng, case):
        vol, _ = generate_phantom(PhantomSpec(n_b=6, n_a=32, n_r=64, seed=3))
        data = vol.data.astype(np.float64)
        if case == "scaled":
            data = data * 1e3 + 500.0
        elif case == "near_eps":  # candidate variances within a few % of VARIANCE_EPS
            data = 0.5 + np.sqrt(VARIANCE_EPS) * 1.01 * rng.normal(size=data.shape)
            data[::2] = rng.normal(size=data[::2].shape)  # templates of unit variance
        radius, n_r, checked = 6, 64, 0
        for b in range(1, data.shape[0], 2):
            t = _interp_rows(data[b - 1], 0.0)
            t = t - t.mean()
            vt = (t * t).mean()
            padded = np.asfortranarray(np.pad(data[b], ((0, 0), (12, 12)), mode="edge"))
            screened, _, undecided, err = _chain_bounds(t, vt, padded, n_r)
            assert err > 0.0
            for j in range(screened.size):
                c = padded[:, j:j + n_r]
                c = c - c.mean()
                vc = (c * c).mean()
                exact = 0.0 if vc < VARIANCE_EPS else float((t * c).mean() / np.sqrt(vt * vc))
                if not undecided[j]:
                    assert abs(screened[j] - exact) <= err
                    checked += 1
        assert checked > 0

    def test_undecided_variance_is_scored_exactly(self):
        # candidate 2 of B-scan 1 has a variance within rounding of
        # VARIANCE_EPS, while its neighbors' differ by far more (edge
        # replication); the template is that candidate, so it scores about 1
        # when unmasked.  Scale B-scan 1 until the screen and the exact
        # formula disagree on its mask, each way round: only the
        # variance-slack confirmation keeps the chain equal to the exhaustive
        # one there (the exact winner is masked in the screen, or the
        # screen's winner is masked in the exact formula)
        rng = np.random.default_rng(5)
        n_a, n_r, radius, s0 = 16, 64, 3, 2
        noise = rng.normal(size=(n_a, n_r))
        template = 10.0 * _interp_rows(noise, float(s0))
        base = _interp_rows(noise, float(s0))
        alpha0 = np.sqrt(VARIANCE_EPS / (base - base.mean()).var())
        t = template - template.mean()
        vt = (t * t).mean()
        flips = {}
        for j in range(-400, 401):
            if len(flips) == 2:
                break
            data = np.stack([template, 1.0 + alpha0 * (1.0 + j * 1e-11) * noise])
            padded = np.asfortranarray(np.pad(data[1], ((0, 0), (6, 6)), mode="edge"))
            _, var, undecided, _ = _chain_bounds(t, vt, padded, n_r)
            c = _interp_rows(data[1], float(s0))
            c = c - c.mean()
            exact_masked = bool((c * c).mean() < VARIANCE_EPS)
            if exact_masked != (var[6 + s0] < VARIANCE_EPS):
                assert undecided[6 + s0] and undecided.sum() == 1
                flips.setdefault(exact_masked, data)
        assert sorted(flips) == [False, True]
        for data in flips.values():
            assert np.array_equal(_template_chain(data, radius), exhaustive_chain(data, radius))

    def test_ties_go_to_the_first_candidate_in_search_order(self):
        # B-scan 1 is depth-periodic (blips every 10 rows, 20 ... 50); the
        # template has one blip at row 35.  Every shift in +/-10 keeps all
        # four blips in the frame, and -5 and 5 put one on the template's;
        # with 0/1 values on 16 x 64 = 2**10 pixels every mean, product and
        # sum is exact, so the two scores tie exactly in float64
        data = np.zeros((2, 16, 64))
        data[0][:, 35] = 1.0
        data[1][:, 20:51:10] = 1.0
        scores = [global_ncc(data[0], _interp_rows(data[1], float(s))) for s in (-5, 5)]
        assert scores[0] == scores[1] > 0.4
        chain = _template_chain(data, 5)
        assert chain[1] == -5.0
        assert np.array_equal(chain, exhaustive_chain(data, 5))

    def test_near_tie_the_screen_orders_wrongly_is_scored_exactly(self, rng):
        # the same layout with random blip values: -5 and 5 tie in exact
        # arithmetic, the exact formula picks -5, and the screen's rounding
        # ranks 5 higher; only confirming every candidate within 2 err of the
        # screen's best keeps the chain equal to the exhaustive one
        blip = rng.uniform(0.5, 1.5, size=(16, 3))
        data = np.full((2, 16, 64), 0.3)
        data[0][:, 34:37] = blip
        for r in (19, 29, 39, 49):
            data[1][:, r:r + 3] = blip
        t = data[0] - data[0].mean()
        padded = np.asfortranarray(np.pad(data[1], ((0, 0), (10, 10)), mode="edge"))
        screened, _, _, err = _chain_bounds(t, (t * t).mean(), padded, 64)
        assert 0.0 < screened[15] - screened[5] <= 2.0 * err
        chain = _template_chain(data, 5)
        assert chain[1] == -5.0
        assert np.array_equal(chain, exhaustive_chain(data, 5))

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


def test_global_ncc_rejects_empty_images():
    with pytest.raises(DimensionError):
        global_ncc(np.zeros((0, 3)), np.zeros((0, 3)))


def test_global_ncc_rejects_mismatched_shapes(rng):
    # broadcasting (6, 5) against (6, 1) would return a correlation
    with pytest.raises(DimensionError):
        global_ncc(rng.normal(size=(6, 5)), rng.normal(size=(6, 1)))
