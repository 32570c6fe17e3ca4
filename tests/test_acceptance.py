"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Criteria 1, 2, and 8 share the session-scoped synthetic suite (20 phantoms
x 5 corruptions with protocol motion in [-15, 15] px).
"""

import numpy as np

from oct_align.align import (
    optimize_alignment,
    solve_from_surfaces,
    surface_alignment_loss,
)
from oct_align.core import SurfaceSet
from oct_align.losses import (
    alignment_loss_semi,
    cross_entropy,
    dice_cross_entropy,
    grad_alignment,
    grad_alignment_semi,
    grad_cross_entropy,
    grad_smooth_l1,
    grad_smoothness,
    segmentation_loss,
    smooth_l1,
    smoothness_energy,
    smoothness_weights,
    soft_argmax,
)
from oct_align.metrics import connectivity_histogram, hd95, mean_abs_distance
from oct_align.pipeline import run_pipeline
from oct_align.resample import resample_axial
from oct_align.synth import MotionSpec, PhantomSpec, apply_motion, generate_phantom

from test_losses import central_difference, random_distribution, relative_error
from test_metrics import brute_force_hd95


def verdict(n, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}"
    print(line)
    assert ok, line


class TestCriterion1AxialRecovery:
    def test_supervised_axial_residual_and_runtime(self, suite):
        report, timings = suite
        assert report["total_corrupted_volumes"] == 100
        assert len(report["per_volume"]) == 100
        mean = report["axial_recovery_px"]["supervised"]["mean_px"]
        runtime = timings["supervised_align_s"]
        verdict(
            1,
            mean <= 2.5 and runtime <= 300.0,
            f"supervised axial residual {mean:.3f} px <= 2.5 px over 100 volumes, "
            f"solver time {runtime:.1f} s <= 300 s",
        )


def unsupervised_against_template(report):
    """(unsupervised mean px, phantoms where unsupervised <= template)."""
    not_worse = sum(1 for row in report["per_phantom"]
                    if row["axial_unsupervised_mean_px"] <= row["axial_template_mean_px"])
    return report["axial_recovery_px"]["unsupervised"]["mean_px"], not_worse


class TestUnsupervisedAxialQuality:
    def test_suite_mean_and_paired_comparison_with_template(self, suite):
        # bounds at the refined chain's recorded values on this suite
        # (0.16911 px, 20/20), so a change to the chain or its subpixel step
        # cannot lose accuracy
        mean, not_worse = unsupervised_against_template(suite[0])
        assert mean <= 0.170, f"unsupervised axial residual {mean:.5f} px > 0.170 px"
        assert not_worse == 20, f"unsupervised <= template on {not_worse}/20 phantom seeds"


class TestHeldOutAxialQuality:
    """Unsupervised quality on data no solver was tuned on: a second seed
    at the suite size and clinical-size volumes.  The seeds were fixed
    before anything ran on them; the bounds are the refined chain's
    recorded values, rounded up in the third decimal (seed 11: 0.17431 px,
    20/20; clinical: 0.05091 px, 3/3)."""

    def test_held_out_seed_at_suite_size(self):
        report, _ = run_pipeline(seed=11, volumes=20, repeats=2)
        mean, not_worse = unsupervised_against_template(report)
        assert mean <= 0.175, f"unsupervised axial residual {mean:.5f} px > 0.175 px"
        assert not_worse == 20, f"unsupervised <= template on {not_worse}/20 phantom seeds"

    def test_clinical_size(self):
        report, _ = run_pipeline(seed=7, volumes=3, repeats=1, dims=(49, 256, 192))
        mean, not_worse = unsupervised_against_template(report)
        assert mean <= 0.051, f"unsupervised axial residual {mean:.5f} px > 0.051 px"
        assert not_worse == 3, f"unsupervised <= template on {not_worse}/3 items"


class TestCriterion2TransverseRecovery:
    def test_masked_residual_and_ablation_direction(self, suite):
        report, _ = suite
        mean = report["transverse_recovery_px"]["masked"]["mean_px"]
        per_phantom = report["per_phantom"]
        worse_or_equal = sum(
            1
            for row in per_phantom
            if row["transverse_no_layer_mask_mean_px"]
            >= row["transverse_masked_mean_px"]
        )
        verdict(
            2,
            mean <= 6.0 and worse_or_equal >= 15,
            f"masked transverse residual {mean:.3f} px <= 6 px; no-layer-mask "
            f"worse or equal on {worse_or_equal}/20 phantom seeds (need >= 15)",
        )


class TestCriterion3ClosedFormExactness:
    def test_exact_recovery_on_noiseless_phantoms(self):
        worst = 0.0
        for seed in range(10):
            spec = PhantomSpec(seed=seed, speckle_sigma=0.0, noise_sigma=0.0)
            vol, surf = generate_phantom(spec)
            rng = np.random.default_rng(900 + seed)
            ax = rng.uniform(-15.0, 15.0, vol.n_b)
            motion = MotionSpec(ax, np.zeros(vol.n_b, dtype=np.int64), (0,))
            _, csurf = apply_motion(vol, surf, motion)
            d = solve_from_surfaces(csurf)
            est = d.axial - d.axial.mean()
            tru = ax - ax.mean()
            worst = max(worst, float(np.abs(est - tru).max()))
        verdict(3, worst < 1e-9, f"closed-form recovery max error {worst:.2e} px < 1e-9")


class TestCriterion4GradientCorrectness:
    def test_all_gradients_match_central_differences(self):
        rng = np.random.default_rng(42)
        worst = {}

        errs = []
        for _ in range(50):
            q = random_distribution(rng, (2, 3, 8), floor=0.3)
            gt = rng.integers(1, 9, size=(2, 3)).astype(float)
            fd = central_difference(lambda x: cross_entropy(x, gt), q)
            errs.append(relative_error(grad_cross_entropy(q, gt), fd))
        worst["cross_entropy"] = max(errs)

        errs = []
        for _ in range(50):
            gt = rng.uniform(3, 8, size=(2, 3, 4))
            t = rng.normal(0, 2, size=(2, 3, 4))
            t[np.abs(np.abs(t) - 1.0) < 0.02] += 0.05
            pred = gt + t
            fd = central_difference(lambda x: smooth_l1(x, gt), pred)
            errs.append(relative_error(grad_smooth_l1(pred, gt), fd))
        worst["smooth_l1"] = max(errs)

        errs = []
        for _ in range(50):
            s = rng.uniform(2, 9, size=(4, 5))
            fd = central_difference(smoothness_energy, s)
            errs.append(relative_error(grad_smoothness(s), fd))
        worst["smoothness"] = max(errs)

        errs = []
        for _ in range(50):
            pos = rng.uniform(5, 25, size=(2, 5, 3))
            d = rng.uniform(-4, 4, 5)
            fd = central_difference(lambda x: surface_alignment_loss(pos, x), d)
            errs.append(relative_error(grad_alignment(pos, d), fd))
        worst["alignment"] = max(errs)

        errs = []
        for _ in range(50):
            gt = rng.uniform(5, 25, size=(2, 5, 3))
            pred = rng.uniform(5, 25, size=(2, 5, 3))
            d = rng.uniform(-4, 4, 5)
            mask = rng.uniform(size=5) < 0.5
            g_d, g_r = grad_alignment_semi(gt, pred, d, mask)
            fd_d = central_difference(
                lambda x: alignment_loss_semi(gt, pred, x, mask), d
            )
            fd_r = central_difference(
                lambda x: alignment_loss_semi(gt, x, d, mask), pred
            )
            errs.append(max(relative_error(g_d, fd_d), relative_error(g_r, fd_r)))
        worst["alignment_semi"] = max(errs)

        peak = max(worst.values())
        detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
        verdict(4, peak <= 1e-5, f"gradient rel. errors (50 instances each): {detail}")


class TestCriterion5LossIdentities:
    def test_identities(self):
        rng = np.random.default_rng(5)
        gt = rng.uniform(5, 20, size=(2, 6, 4))
        pred = rng.uniform(5, 20, size=(2, 6, 4))
        d = rng.uniform(-3, 3, 6)
        full = np.ones(6, dtype=bool)
        semi_equal = alignment_loss_semi(gt, pred, d, full) == surface_alignment_loss(gt, d)

        q = random_distribution(rng, (2, 3, 4, 10))
        gt_rows = rng.integers(3, 8, size=(2, 3, 4)).astype(float)
        gt_rows.sort(axis=0)
        from oct_align.core import surfaces_to_labels
        from oct_align.losses import LossWeights

        m = surfaces_to_labels(SurfaceSet(np.sort(gt_rows, axis=0)), 10)
        p = np.stack([(m.labels == c).astype(float) for c in range(3)])
        weights = LossWeights(np.array([0.02, 0.03]))
        out = segmentation_loss(q, p, gt_rows, m, weights)
        predicted = soft_argmax(q)
        resummed = (
            dice_cross_entropy(p, m)
            + cross_entropy(q, gt_rows)
            + smooth_l1(predicted, gt_rows)
            + 0.02 * smoothness_energy(predicted[0])
            + 0.03 * smoothness_energy(predicted[1])
        )
        total_gap = abs(out["total"] - resummed)

        uniform = np.full((1, 1, 10), 0.1)
        ce_gap = abs(cross_entropy(uniform, np.full((1, 1), 4.0)) - np.log(10.0))

        verdict(
            5,
            semi_equal and total_gap <= 1e-10 and ce_gap <= 1e-9,
            f"semi==supervised exactly: {semi_equal}; total vs parts gap "
            f"{total_gap:.2e} <= 1e-10; uniform CE vs log R gap {ce_gap:.2e} <= 1e-9",
        )


class TestCriterion6MetricOracles:
    def test_hd95_mad_histogram(self):
        rng = np.random.default_rng(6)
        exact = True
        for _ in range(25):
            n_a = int(rng.integers(4, 33))
            pred = rng.uniform(2, 40, size=(1, 2, n_a))
            gt = rng.uniform(2, 40, size=(1, 2, n_a))
            out = hd95(SurfaceSet(pred), SurfaceSet(gt), spacing=(3.24, 6.7))
            expect = np.mean([
                brute_force_hd95(pred[0, b], gt[0, b], 3.24, 6.7) for b in range(2)
            ])
            exact = exact and out["overall"]["mean_um"] == expect

        pos = rng.uniform(5, 30, size=(2, 4, 5))
        mad = mean_abs_distance(
            SurfaceSet(pos + 3.0), SurfaceSet(pos), dz_um=3.24
        )["overall"]["mean_um"]
        mad_exact = mad == 3.0 * 3.24

        counts, _ = connectivity_histogram(SurfaceSet(rng.uniform(1, 30, size=(3, 5, 7))))
        mass_ok = counts.sum() == 3 * 4 * 7

        verdict(
            6,
            exact and mad_exact and mass_ok,
            f"hd95 == brute force on 25 instances: {exact}; "
            f"mad(+3 px, dz=3.24) == 9.72: {mad_exact}; histogram mass exact: {mass_ok}",
        )


class TestCriterion7ResamplerContract:
    def test_identity_shift_linearity(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(size=(3, 5, 8)).astype(np.float32)
        from oct_align.core import OctVolume

        vol = OctVolume(data)
        out = resample_axial(vol, np.zeros(3))
        identity_ok = out.data.tobytes() == vol.data.tobytes()

        arr = rng.normal(size=(2, 4, 8))
        shifted = resample_axial(arr, np.array([1.0, 0.0]))
        shift_ok = np.array_equal(shifted[0, :, :-1], arr[0, :, 1:]) and np.array_equal(
            shifted[0, :, -1], arr[0, :, -1]
        )

        a = rng.integers(0, 512, size=(2, 4, 10)).astype(np.float64)
        b = rng.integers(0, 512, size=(2, 4, 10)).astype(np.float64)
        d = np.array([1.5, -2.5])
        linear_ok = np.array_equal(
            resample_axial(2.0 * a + 0.5 * b, d),
            2.0 * resample_axial(a, d) + 0.5 * resample_axial(b, d),
        )
        verdict(
            7,
            identity_ok and shift_ok and linear_ok,
            f"zero-shift bit-identical: {identity_ok}; integer shift exact with "
            f"replicate fill: {shift_ok}; linearity exact: {linear_ok}",
        )


class TestCriterion8NccImprovement:
    def test_adjacent_ncc_never_decreases(self, suite):
        report, _ = suite
        rows = report["per_volume"]
        improved = [
            r["ncc_adjacent"]["after_axial"] >= r["ncc_adjacent"]["before"]
            for r in rows
        ]
        before = report["ncc_adjacent"]["before_mean"]
        after = report["ncc_adjacent"]["after_axial_mean"]
        verdict(
            8,
            all(improved),
            f"adjacent NCC non-decreasing on {sum(improved)}/{len(rows)} volumes "
            f"(mean {before:.4f} -> {after:.4f})",
        )


class TestCriterion9SmoothnessDynamics:
    def test_gradient_descent_flattens_noisy_surface(self):
        rng = np.random.default_rng(9)
        s = rng.uniform(4, 8, size=(8, 8))
        step = 0.1
        prev = smoothness_energy(s)
        monotone = True
        for _ in range(50000):
            g = grad_smoothness(s)
            if np.abs(g).max() <= 1e-6:
                break
            s = s - step * g
            cur = smoothness_energy(s)
            monotone = monotone and cur <= prev + 1e-12
            prev = cur
        final_grad = float(np.abs(grad_smoothness(s)).max())
        flat = float(np.ptp(s))
        verdict(
            9,
            monotone and final_grad <= 1e-6 and flat < 1e-4,
            f"descent monotone: {monotone}; final max|grad| {final_grad:.2e} <= 1e-6; "
            f"surface range at the limit {flat:.2e}",
        )
