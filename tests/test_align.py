import dataclasses
import inspect

import numpy as np
import pytest

from oct_align import align, pipeline
from oct_align.align import (
    VARIANCE_EPS,
    AlignConfig,
    _chain_scores,
    _padded_copy,
    _template_chain,
    apply_axial_correction,
    global_ncc,
    optimize_alignment,
    solve_from_surfaces,
    surface_alignment_loss,
    template_match_align,
)
from oct_align.core import OctVolume, SurfaceSet, first_best, search_order
from oct_align.errors import ConfigError, DimensionError, ValidationError
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
        with pytest.raises(DimensionError):  # one surface is still (1, N_B, N_A)
            surface_alignment_loss(rng.uniform(1, 5, (3, 2)), np.zeros(3))
        # the gradient checks the same shapes, not numpy's indexing
        with pytest.raises(DimensionError, match="surface positions"):
            grad_alignment(rng.uniform(1, 5, (3, 4)), np.zeros(3))
        with pytest.raises(DimensionError, match="N_B=3"):
            grad_alignment(rng.uniform(1, 5, (2, 3, 4)), np.zeros(5))


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
        # max_iters is validated but changes no result: no solver iterates
        vol, surf = generate_phantom(PhantomSpec(n_b=8, n_a=24, n_r=64, seed=1))
        cvol, _, _ = simulate_motion(vol, surf, seed=41)
        assert np.array_equal(optimize_alignment(cvol, None, AlignConfig(max_iters=1)).axial,
                              optimize_alignment(cvol, None).axial)

    def test_supervised_is_the_closed_form(self):
        vol, surf = generate_phantom(PhantomSpec(n_b=10, n_a=32, n_r=64, seed=6))
        cvol, csurf, _ = simulate_motion(vol, surf, seed=7)
        trace = []
        got = optimize_alignment(cvol, csurf, trace=trace)
        want = solve_from_surfaces(csurf)
        assert np.array_equal(got.axial, want.axial)
        assert np.array_equal(got.transverse, want.transverse)
        assert trace == [surface_alignment_loss(csurf, want.axial)]  # no sweep ran
        # the volume check comes before the surfaces' grid check
        with pytest.raises(DimensionError, match="OctVolume"):
            optimize_alignment(cvol.data, csurf.positions[:, :3])
        with pytest.raises(DimensionError, match="N_B, N_A"):
            optimize_alignment(OctVolume(cvol.data[:, :4]), csurf.positions[:, :3])
        # B-scans of any size are accepted: no window has to fit in them
        small = optimize_alignment(OctVolume(cvol.data[:, :4, :8]), csurf.positions[:, :, :4])
        assert np.array_equal(small.axial, solve_from_surfaces(csurf.positions[:, :, :4]).axial)

    # rint(d - d[0]) of the unsupervised estimate on simulate_motion(seed +
    # 100) of PhantomSpec(seed).  The nearest value to a rounding boundary
    # lies 0.0108, 0.0027 and 0.0018 px from it on these seeds, so only a
    # changed integer step or a subpixel step changed by more than 1e-3 px
    # can change a literal
    GOLDEN = {
        11: [0, 0, 10, 15, 18, -2, 19, 24, 3, 1, 6, 17, -2, 8, 7, 23,
             5, 14, 18, -2, 21, 11, 22, 9],
        12: [0, 22, 20, -3, -1, 11, 21, 4, 6, 18, -2, 21, 26, 21, 26, 12,
             3, 21, 26, 20, 0, 6, 4, 20],
        16: [0, 21, 24, 24, 10, 13, 4, 12, 5, 10, 4, 0, 23, 23, -4, 3,
             24, 15, 14, -1, 18, 15, 1, 20],
    }

    @pytest.mark.parametrize("seed", [11, 12, 16])
    def test_golden_integer_shifts(self, seed):
        vol, surf = generate_phantom(PhantomSpec(seed=seed))
        cvol, csurf, _ = simulate_motion(vol, surf, seed=seed + 100)
        assert np.array_equal(optimize_alignment(cvol, csurf).axial,
                              solve_from_surfaces(csurf).axial)
        d = optimize_alignment(cvol, None).axial
        rel = d - d[0]
        assert np.abs(np.abs(rel - np.rint(rel)) - 0.5).min() > 1e-3
        assert np.rint(rel).astype(int).tolist() == self.GOLDEN[seed]

    @pytest.mark.parametrize("flat_first", [False, True])
    def test_trace_gets_one_value_per_call(self, flat_first):
        # minus the summed global NCC of the adjacent pairs at the integer
        # steps; a link after a flat template adds 0
        vol, surf = generate_phantom(PhantomSpec(n_b=8, n_a=24, n_r=64, seed=3))
        cvol, _, _ = simulate_motion(vol, surf, seed=26)
        if flat_first:
            data = cvol.data.copy()
            data[0] = 1.0
            cvol = cvol.with_data(data)
        steps, _, _ = _template_chain(cvol.data, 15)
        data = cvol.data.astype(np.float64)
        links = [global_ncc(_interp_rows(data[b - 1], steps[b - 1]),
                            _interp_rows(data[b], steps[b])) for b in range(1, 8)]
        assert (links[0] == 0.0) == flat_first
        trace = []
        optimize_alignment(cvol, None, trace=trace)
        assert trace == [pytest.approx(-sum(links), rel=1e-12)]

    def test_public_solvers_take_no_chain(self):
        assert list(inspect.signature(optimize_alignment).parameters) == [
            "volume", "surfaces", "cfg", "trace"]
        assert list(inspect.signature(template_match_align).parameters) == ["volume", "cfg"]

    def test_a_constant_added_to_every_displacement_changes_nothing(self):
        # an item whose midrange-centred chain lies 0.5 px off the integer
        # grid: a constant added to the motion moves the estimate by the
        # resampling's interpolation only, and either way the estimate beats
        # the integer chain
        vol, surf = generate_phantom(PhantomSpec(n_b=8, n_a=24, n_r=64, seed=0))
        cvol, _, motion = simulate_motion(vol, surf, seed=40)
        steps, _, _ = _template_chain(cvol.data, 15)
        assert (steps.max() + steps.min()) % 2 == 1
        got = optimize_alignment(cvol, None)
        assert motion_error(got, motion)[0] < motion_error(template_match_align(cvol), motion)[0]
        shifted = MotionSpec(motion.axial + 0.5, motion.transverse,
                             motion.group_boundaries)
        cvol2, _ = apply_motion(vol, surf, shifted)
        got2 = optimize_alignment(cvol2, None)
        assert np.abs(got2.axial - got.axial).max() < 0.1
        assert (motion_error(got2, shifted)[0]
                < motion_error(template_match_align(cvol2), shifted)[0])


def reference_offsets(data, steps, radius):
    """The parabola step of each link from scores of directly resampled
    B-scans, with the chain's rules: 0 after a flat template, at a range-edge
    step and where the curvature is not negative."""
    offsets = np.zeros(data.shape[0])
    for b in range(1, data.shape[0]):
        template = _interp_rows(data[b - 1], steps[b - 1])
        s = steps[b]
        if (template - template.mean()).var() < VARIANCE_EPS or abs(s) == 2 * radius:
            continue
        f_m, f_0, f_p = (global_ncc(template, _interp_rows(data[b], k))
                         for k in (s - 1, s, s + 1))
        if f_m - 2.0 * f_0 + f_p < 0:
            offsets[b] = np.clip(0.5 * (f_m - f_p) / (f_m - 2.0 * f_0 + f_p), -0.5, 0.5)
    return offsets


def smooth_pair(truth, n_r=64):
    """Two B-scans of one smooth depth profile, the second pushed ``truth``
    rows deeper: the global NCC of the pair is unimodal in the shift."""
    rows = np.arange(n_r, dtype=np.float64)
    img = np.exp(-((rows - 30.0) / 8.0) ** 2)[None, :] * np.linspace(1.0, 1.5, 12)[:, None]
    return np.stack([img, _interp_rows(img, -truth)])


class TestSubpixelChain:
    @pytest.mark.parametrize("seed", [11, 12, 16])
    def test_offsets_match_directly_resampled_scores(self, seed):
        # only integer shifts are scored, and the chain's scores of the
        # slices of its padded copy round what global_ncc gives directly
        # resampled B-scans to within 1e-12
        vol, surf = generate_phantom(PhantomSpec(seed=seed))
        cvol, _, _ = simulate_motion(vol, surf, seed=seed + 100)
        steps, offsets, _ = _template_chain(cvol.data, 15)
        assert offsets[0] == 0.0
        assert np.abs(offsets).max() <= 0.5
        assert np.count_nonzero(offsets) > cvol.n_b // 2
        want = reference_offsets(cvol.data.astype(np.float64), steps, 15)
        np.testing.assert_allclose(offsets, want, rtol=0, atol=1e-12)

    def test_a_range_edge_step_keeps_offset_zero(self):
        # the truth 6 px lies outside the range [-4, 4] of radius 2, so the
        # chain picks the edge 4, whose outer neighbor is off the padded copy;
        # at radius 4 a truth of 5.7 px is picked at 6 and refined
        steps, offsets, _ = _template_chain(smooth_pair(6.0), 2)
        assert steps[1] == 4.0 and offsets[1] == 0.0
        steps, offsets, _ = _template_chain(smooth_pair(5.7), 4)
        assert steps[1] == 6.0 and offsets[1] == pytest.approx(-0.3, abs=0.05)

    def test_a_flat_template_keeps_offset_zero(self, rng):
        img = rng.normal(size=(12, 20))
        data = np.stack([np.ones((12, 20)), img, _interp_rows(img, -0.5)])
        steps, offsets, _ = _template_chain(data, 3)
        assert steps[1] == 0.0 and offsets[1] == 0.0
        assert offsets[2] != 0.0  # the next link, from a textured template, is refined

    def test_offsets_stay_within_half_a_pixel(self, rng):
        # a noise texture under fractional steps spread over the whole pixel:
        # the offsets reach toward +/-0.5 but never beyond
        texture = rng.normal(size=(16, 64))
        axial = rng.uniform(-6.0, 6.0, 30)
        data = np.stack([_interp_rows(texture, -a) for a in axial])
        _, offsets, _ = _template_chain(data, 8)
        assert 0.4 < np.abs(offsets).max() <= 0.5

    def test_fractional_steps_beat_the_integer_chain(self):
        # noiseless phantoms under fractional motion: the subpixel steps
        # recover what the integer chain rounds away
        for seed in range(3):
            vol, surf = generate_phantom(PhantomSpec(seed=seed, speckle_sigma=0.0,
                                                     noise_sigma=0.0))
            ax = np.random.default_rng(500 + seed).uniform(-15.0, 15.0, vol.n_b)
            motion = MotionSpec(ax, np.zeros(vol.n_b, dtype=np.int64), (0,))
            cvol, _ = apply_motion(vol, surf, motion)
            refined = motion_error(optimize_alignment(cvol, None), motion)[0]
            chain = motion_error(template_match_align(cvol), motion)[0]
            assert refined < 0.5 * chain


    @pytest.mark.parametrize("frac", [-0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4])
    def test_a_fractional_link_step_is_recovered(self, frac):
        # a unimodal score: the chain picks the nearest integer and the
        # parabola step recovers the fraction to within its pixel-locking
        # bias, far below what the integer chain rounds away
        truth = 3.0 + frac
        steps, offsets, _ = _template_chain(smooth_pair(truth), 5)
        assert steps[1] == 3.0
        assert np.sign(offsets[1]) == np.sign(frac)
        assert abs(steps[1] + offsets[1] - truth) < 0.01

    def test_an_exact_tie_refines_to_the_midpoint(self):
        # a two-row blip against a one-row blip: shifts 4 and 5 each overlap
        # one row and tie exactly (0/1 values on 2**10 pixels), the first in
        # search order wins, and the parabola through the tied pair lands on
        # the midpoint 4.5
        data = np.zeros((2, 16, 64))
        data[0][:, 35:37] = 1.0
        data[1][:, 40] = 1.0
        steps, offsets, _ = _template_chain(data, 5)
        assert steps[1] == 4.0 and offsets[1] == 0.5
        assert np.array_equal(steps, exhaustive_chain(data, 5))
        assert np.array_equal(offsets, reference_offsets(data, steps, 5))


def chain_scores(data, radius):
    """``_chain_scores`` of B-scan 1 against B-scan 0 at shift 0, each
    padded as the chain pads it."""
    span, n_r = 2 * radius, data.shape[2]
    template = _padded_copy(data[0], span)[:, span:span + n_r]
    t = template - template.mean()
    return _chain_scores(t, (t * t).mean(), _padded_copy(data[1], span), n_r)


def direct_scores(data, radius):
    """``global_ncc`` of B-scan 0 against B-scan 1 resampled at each shift
    -2 * radius ... 2 * radius."""
    x = data.astype(np.float64)
    return np.array([global_ncc(x[0], _interp_rows(x[1], float(s)))
                     for s in range(-2 * radius, 2 * radius + 1)])


# bound on |_chain_scores - global_ncc| for any candidate: the two formulas
# round the same coefficient, and the largest difference measured over the
# cases below is 1e-15
SCORE_ATOL = 1e-13


class TestChainCandidates:
    @pytest.mark.parametrize("radius", range(1, 12))
    def test_scores_match_global_ncc_at_every_radius(self, radius):
        # prefix-sum means and variances and one dot product per candidate
        # give each candidate's global NCC, as scoring it on its own does
        vol, _ = generate_phantom(PhantomSpec(n_b=2, n_a=20, n_r=48, seed=radius))
        data = vol.data.astype(np.float64) * 1e3 + 0.1
        v = chain_scores(data, radius)
        assert v.shape == (4 * radius + 1,)
        np.testing.assert_allclose(v, direct_scores(data, radius), rtol=0, atol=SCORE_ATOL)

    @pytest.mark.parametrize("case", ["phantom", "x1e3+500", "x1e9", "x1e10", "float32+1e4",
                                      "clinical"])
    def test_scores_match_global_ncc_for_every_candidate(self, case):
        # every candidate of every link, at scales and offsets far from the
        # phantom's own, and at clinical size (256 x 192 B-scans, 61
        # candidates)
        dims, radius = ((3, 256, 192), 15) if case == "clinical" else ((6, 32, 64), 6)
        vol, surf = generate_phantom(PhantomSpec(n_b=dims[0], n_a=dims[1], n_r=dims[2], seed=3))
        cvol, _, _ = simulate_motion(vol, surf, seed=43)
        data = cvol.data.astype(np.float64)
        data = {"x1e3+500": data * 1e3 + 500.0, "x1e9": data * 1e9, "x1e10": data * 1e10,
                "float32+1e4": cvol.data + np.float32(1e4)}.get(case, data)
        for b in range(1, data.shape[0]):
            v = chain_scores(data[b - 1:b + 1], radius)
            assert v.size == 4 * radius + 1 and np.count_nonzero(v) == v.size
            np.testing.assert_allclose(v, direct_scores(data[b - 1:b + 1], radius),
                                       rtol=0, atol=SCORE_ATOL)

    @pytest.mark.parametrize("radius", range(1, 12))
    def test_every_candidate_is_the_resampled_b_scan_bitwise(self, radius):
        # an integer shift only gathers rows with replicate fill, so each
        # slice of the padded copy is the resampled B-scan, less the copy's
        # one centring constant
        vol, _ = generate_phantom(PhantomSpec(n_b=2, n_a=20, n_r=48, seed=radius))
        data = vol.data.astype(np.float64)
        span = 2 * radius
        padded = _padded_copy(data[1], span)
        centre = np.float32(np.pad(data[1], ((0, 0), (span, span)), mode="edge").mean())
        for s in range(-span, span + 1):
            cand = padded[:, span + s:span + s + 48]
            direct = _interp_rows(data[1], float(s))
            assert cand.flags.f_contiguous
            assert np.array_equal(cand, direct - np.float64(centre))

    @pytest.mark.parametrize("dims", [(2, 20, 48), (2, 64, 96), (2, 256, 192)])
    def test_padded_copy_equals_the_edge_pad_form_bitwise(self, dims):
        vol, _ = generate_phantom(PhantomSpec(n_b=dims[0], n_a=dims[1], n_r=dims[2], seed=2))
        span = 30
        want = np.asfortranarray(np.pad(vol.data[1], ((0, 0), (span, span)), mode="edge"),
                                 np.float64)
        want -= np.float32(want.mean())
        got = _padded_copy(vol.data[1], span)
        assert got.dtype == np.float64 and got.flags.f_contiguous
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", ["phantom", "x1e3+500", "clinical"])
    def test_cross_terms_match_one_dot_product_per_candidate(self, case):
        # the diagonals of t.T @ padded against one np.dot per candidate on
        # its contiguous block, and the shift that first_best picks from each
        dims, radius = ((3, 256, 192), 15) if case == "clinical" else ((6, 32, 64), 6)
        vol, surf = generate_phantom(PhantomSpec(n_b=dims[0], n_a=dims[1], n_r=dims[2], seed=4))
        cvol, _, _ = simulate_motion(vol, surf, seed=44)
        data = cvol.data.astype(np.float64)
        if case == "x1e3+500":
            data = data * 1e3 + 500.0
        span, n_r = 2 * radius, dims[2]
        for b in range(1, data.shape[0]):
            template = _padded_copy(data[b - 1], span)[:, span:span + n_r]
            t = template - template.mean()
            vt = (t * t).mean()
            padded = _padded_copy(data[b], span)
            v = _chain_scores(t, vt, padded, n_r)
            # the former per-candidate cross term, with the same prefix sums
            n_a, size = padded.shape[0], padded.shape[0] * n_r
            flat, t_flat = padded.ravel(order="F"), t.ravel(order="F")
            dots = np.array([np.dot(t_flat, flat[j * n_a:(j + n_r) * n_a])
                             for j in range(v.size)])
            sums = np.concatenate(([0.0], np.cumsum(padded.sum(axis=0))))
            squares = np.concatenate(([0.0], np.cumsum((padded * padded).sum(axis=0))))
            mean = (sums[n_r:] - sums[:v.size]) / size
            var = (squares[n_r:] - squares[:v.size]) / size - mean * mean
            want = (dots - mean * t.sum()) / size / np.sqrt(vt * var)
            np.testing.assert_allclose(v, want, rtol=0, atol=1e-12)
            assert first_best(v, span) == first_best(want, span)

    def test_the_chain_never_calls_global_ncc(self, monkeypatch):
        # each candidate is scored once, by _chain_scores: on a phantom and
        # on exact ties alike, the chain runs with global_ncc refused, and so
        # does the unsupervised trace, which is the chain's own scores
        def refuse(*_):
            raise AssertionError("the template chain called global_ncc")

        vol, surf = generate_phantom(PhantomSpec(n_b=8, n_a=24, n_r=64, seed=1))
        cvol, _, _ = simulate_motion(vol, surf, seed=41)
        ties = np.zeros((2, 16, 64))
        ties[0][:, 35] = 1.0
        ties[1][:, 20:51:10] = 1.0
        monkeypatch.setattr(align, "global_ncc", refuse)
        steps, offsets, _ = _template_chain(cvol.data, 15)
        assert np.array_equal(steps, exhaustive_chain(cvol.data.astype(np.float64), 15))
        assert np.count_nonzero(offsets) > 0
        assert _template_chain(ties, 5)[0][1] == -5.0
        trace = []
        optimize_alignment(cvol, None, trace=trace)
        assert len(trace) == 1 and trace[0] < 0


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

    @pytest.mark.parametrize("seed,scale,offset,dtype", [
        pytest.param(0, 1.0, 0.0, np.float64, id="0-1.0-0.0"),
        pytest.param(1, 1.0, 0.0, np.float64, id="1-1.0-0.0"),
        pytest.param(3, 1e3, 500.0, np.float64, id="3-1000.0-500.0"),
        pytest.param(2, 1e9, 0.0, np.float64, id="2-1e9-0.0"),
        pytest.param(2, 1e10, 0.0, np.float64, id="2-1e10-0.0"),
        pytest.param(4, 1.0, 1e4, np.float32, id="4-1.0-1e4-float32"),
    ])
    def test_equals_exhaustive_chain(self, seed, scale, offset, dtype):
        # the chain picks every step as scoring every candidate with
        # global_ncc on directly resampled B-scans does, also at huge scales
        # and on a float32 volume whose texture sits under a DC offset; its
        # offsets round the same parabola to within 1e-12 px
        vol, surf = generate_phantom(PhantomSpec(n_b=8, n_a=24, n_r=64, seed=seed))
        cvol, _, _ = simulate_motion(vol, surf, seed=seed + 40)
        data = cvol.data.astype(dtype) * dtype(scale) + dtype(offset)
        steps, offsets, _ = _template_chain(data, 15)
        data = data.astype(np.float64)
        assert np.array_equal(steps, exhaustive_chain(data, 15))
        np.testing.assert_allclose(offsets, reference_offsets(data, steps, 15), rtol=0, atol=1e-12)
        assert np.count_nonzero(offsets) > 0

    @pytest.mark.parametrize("offset,dtype", [(0.0, np.float64), (1e4, np.float32)])
    def test_equals_exhaustive_chain_where_ncc_is_near_its_cap(self, rng, offset, dtype):
        # B-scans are affine copies of one texture under integer motion, so
        # the true shift scores close to 1; the chain finds the motion and
        # refines it by little, also on a float32 volume under a DC offset
        texture = rng.uniform(size=(24, 64))
        axial = np.array([0, 4, -3, 7, 2, -5, 3, 1], dtype=float)
        data = np.stack([(1.0 + 0.2 * b) * _interp_rows(texture, -axial[b]) + 0.1 * b
                         for b in range(8)])
        data = (data + offset).astype(dtype)
        steps, offsets, _ = _template_chain(data, 8)
        data = data.astype(np.float64)
        assert np.array_equal(steps, axial)
        assert np.array_equal(steps, exhaustive_chain(data, 8))
        np.testing.assert_allclose(offsets, reference_offsets(data, steps, 8), rtol=0, atol=1e-12)
        assert np.abs(offsets).max() < 0.05

    def test_a_constant_candidate_b_scan_scores_zero(self):
        # every candidate of a constant B-scan is masked, as global_ncc masks
        # it; the chain keeps shift 0 and offset 0
        vol, _ = generate_phantom(PhantomSpec(n_b=2, n_a=32, n_r=48, seed=7))
        data = vol.data.astype(np.float64)
        data[1] = 0.7
        v = chain_scores(data, 3)
        assert v.shape == (13,) and not v.any() and not direct_scores(data, 3).any()
        steps, offsets, _ = _template_chain(data, 3)
        assert not steps.any() and not offsets.any()

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
        chain, _, _ = _template_chain(data, 5)
        assert chain[1] == -5.0
        assert np.array_equal(chain, exhaustive_chain(data, 5))

    def test_a_bare_array_is_rejected(self):
        # as optimize_alignment rejects it: a DimensionError, not an
        # AttributeError on n_r
        vol, _ = generate_phantom(PhantomSpec(n_b=4, n_a=24, n_r=48, seed=0))
        with pytest.raises(DimensionError, match="OctVolume"):
            template_match_align(vol.data)

    def test_flat_template_keeps_shift_zero(self, rng):
        img = rng.normal(size=(12, 20))
        data = np.stack([np.ones((12, 20)), img, img])
        chain, _, _ = _template_chain(data, 3)
        assert chain[1] == 0.0 and chain[2] == 0.0


def test_run_volume_computes_the_chain_once(monkeypatch):
    params = (3, 1, 0, (10, 32, 64), AlignConfig(search_radius=15))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _template_chain(*args, **kwargs)

    monkeypatch.setattr(align, "_template_chain", counted)
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


@pytest.mark.parametrize("kwargs, error", [
    ({"align_overrides": {"search_radius": 0}}, ValidationError),
    ({"align_overrides": {"max_iters": 0}}, ValidationError),
    ({"dims": (8, 20, 96)}, ConfigError),  # N_A within the 30-column transverse search
])
def test_bad_align_config_fails_before_any_phantom(monkeypatch, kwargs, error):
    def no_phantom(spec):
        raise AssertionError("a phantom was built")

    monkeypatch.setattr(pipeline, "generate_phantom", no_phantom)
    with pytest.raises(error):
        pipeline.run_pipeline(**{"volumes": 1, "repeats": 1, "dims": (8, 32, 96), **kwargs})


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


class TestGlobalNcc:
    def test_matches_brute_force(self, rng):
        a = rng.normal(size=(6, 7))
        b = rng.normal(size=(6, 7)) + 0.4 * a
        ma, mb = a.sum() / a.size, b.sum() / b.size
        cov = sum((x - ma) * (y - mb) for x, y in zip(a.ravel(), b.ravel()))
        va = sum((x - ma) ** 2 for x in a.ravel())
        vb = sum((y - mb) ** 2 for y in b.ravel())
        assert global_ncc(a, b) == pytest.approx(cov / np.sqrt(va * vb), rel=1e-12)

    def test_symmetric_and_bounded(self, rng):
        for _ in range(20):
            a, b = rng.normal(size=(2, 8, 9))
            v = global_ncc(a, b)
            assert global_ncc(b, a) == v and -1.0 <= v <= 1.0
        img = rng.normal(size=(8, 9))
        assert global_ncc(img, -img) == pytest.approx(-1.0, abs=1e-12)

    def test_affine_intensity_invariance(self, rng):
        a = rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16))
        base = global_ncc(a, b)
        assert global_ncc(3.0 * a + 2.0, b) == pytest.approx(base, rel=1e-12)
        assert global_ncc(a, 0.25 * b - 7.0) == pytest.approx(base, rel=1e-12)
        assert global_ncc(-2.0 * a, b) == pytest.approx(-base, rel=1e-12)

    def test_the_variance_guard_masks_either_side(self, rng):
        # a variance just below VARIANCE_EPS scores 0 on either side; just
        # above it the image is scored, with its full correlation
        noise = rng.normal(size=(16, 16))
        unit = (noise - noise.mean()) / noise.std()
        other = unit + 0.5 * rng.normal(size=(16, 16))
        below = 0.5 + np.sqrt(0.99 * VARIANCE_EPS) * unit
        above = 0.5 + np.sqrt(1.01 * VARIANCE_EPS) * unit
        assert global_ncc(below, other) == 0.0 and global_ncc(other, below) == 0.0
        assert global_ncc(above, other) == pytest.approx(global_ncc(unit, other), rel=1e-9)
