import numpy as np
import pytest

from oct_align.align import surface_alignment_loss
from oct_align.core import LabelMap, SurfaceSet, surfaces_to_labels
from oct_align.errors import DimensionError, ValidationError
from oct_align.losses import (
    LossWeights,
    alignment_loss_semi,
    cross_entropy,
    dice_cross_entropy,
    grad_alignment,
    grad_alignment_semi,
    grad_cross_entropy,
    grad_smooth_l1,
    grad_smoothness,
    mixed_surfaces,
    segmentation_loss,
    smooth_l1,
    smoothness_energy,
    smoothness_weights,
    soft_argmax,
)


def random_distribution(rng, shape, floor=1e-3):
    """Dirichlet-ish distributions bounded away from zero."""
    q = rng.uniform(floor, 1.0, size=shape)
    return q / q.sum(axis=-1, keepdims=True)


def delta_distribution(shape, row):
    q = np.zeros(shape)
    q[..., row - 1] = 1.0
    return q


class TestSoftArgmax:
    def test_delta_at_seven(self):
        q = delta_distribution((2, 3, 10), 7)
        assert np.allclose(soft_argmax(q), 7.0)

    def test_uniform_gives_center(self):
        q = np.full((1, 1, 10), 0.1)
        assert np.allclose(soft_argmax(q), 5.5)

    def test_matches_dot_product_oracle(self, rng):
        q = random_distribution(rng, (2, 2, 16))
        got = soft_argmax(q)
        rows = np.arange(1, 17)
        for b in range(2):
            for a in range(2):
                assert np.isclose(got[b, a], float(np.dot(q[b, a], rows)), rtol=1e-12)

    def test_unnormalized_rejected(self, rng):
        q = random_distribution(rng, (1, 1, 8))
        q = q * 1.001
        with pytest.raises(ValidationError):
            soft_argmax(q)

    def test_row_reversal_equivariance(self, rng):
        q = random_distribution(rng, (2, 3, 12))
        assert np.allclose(soft_argmax(q[..., ::-1]), 13.0 - soft_argmax(q), atol=1e-9)

    def test_nan_rejected(self, rng):
        # a nan sum compares false with any bound, so it must fail the check
        q = random_distribution(rng, (2, 2, 8))
        q[1, 0, 3] = np.nan
        with pytest.raises(ValidationError):
            soft_argmax(q)


class TestCrossEntropy:
    def test_delta_prediction_is_zero(self):
        gt = np.full((2, 3), 4.0)
        q = delta_distribution((2, 3, 10), 4)
        assert cross_entropy(q, gt) == 0.0

    def test_uniform_single_a_scan_is_log_r(self):
        q = np.full((1, 1, 10), 0.1)
        assert np.isclose(cross_entropy(q, np.full((1, 1), 3.0)), np.log(10.0), atol=1e-9)

    def test_matches_direct_summation(self, rng):
        q = random_distribution(rng, (3, 4, 12))
        gt = rng.integers(1, 13, size=(3, 4)).astype(float)
        expect = -sum(
            np.log(q[b, a, int(gt[b, a]) - 1]) for b in range(3) for a in range(4)
        )
        assert np.isclose(cross_entropy(q, gt), expect, rtol=1e-12)

    def test_out_of_range_gt_rejected(self, rng):
        q = random_distribution(rng, (1, 1, 8))
        with pytest.raises(ValidationError):
            cross_entropy(q, np.full((1, 1), 9.0))

    @pytest.mark.parametrize("row", [1e300, np.inf, -np.inf])
    def test_gt_beyond_int64_rejected_before_the_cast(self, rng, row):
        # the int64 cast of these would warn
        q = random_distribution(rng, (1, 1, 8))
        with pytest.raises(ValidationError, match=r"lie in \[1, 8\]"):
            cross_entropy(q, np.full((1, 1), row))

    def test_fractional_gt_rejected(self, rng):
        q = random_distribution(rng, (1, 1, 8))
        with pytest.raises(ValidationError):
            cross_entropy(q, np.full((1, 1), 2.5))

    @pytest.mark.parametrize("fn", [cross_entropy, grad_cross_entropy])
    def test_gt_off_the_distribution_grid_rejected(self, rng, fn):
        # one gt row per A-scan: neither broadcast nor a missing surface axis
        q = random_distribution(rng, (2, 3, 4, 10))
        for shape in ((1, 3, 4), (3, 4)):
            with pytest.raises(DimensionError, match="gt shape"):
                fn(q, np.full(shape, 5.0))


class TestSmoothL1:
    def test_zero_residual(self):
        s = np.full((1, 2, 3), 5.0)
        assert smooth_l1(s, s) == 0.0

    def test_piecewise_values(self):
        gt = np.full((1, 1, 1), 4.0)
        assert np.isclose(smooth_l1(gt + 0.5, gt), 0.125)
        assert np.isclose(smooth_l1(gt + 2.0, gt), 1.5)
        assert np.isclose(smooth_l1(gt - 2.0, gt), 1.5)

    def test_gradient_continuous_at_kink(self, rng):
        # finite-difference slope just inside/outside |t| = 1 agree
        gt = np.zeros((1, 1, 1)) + 5.0
        h = 1e-7
        inner = (smooth_l1(gt + 1.0, gt) - smooth_l1(gt + 1.0 - h, gt)) / h
        outer = (smooth_l1(gt + 1.0 + h, gt) - smooth_l1(gt + 1.0, gt)) / h
        assert abs(inner - outer) < 1e-6


class TestSmoothnessEnergy:
    def test_constant_surface_zero(self):
        assert smoothness_energy(np.full((4, 5), 3.0)) == 0.0

    def test_hand_computed_two_by_two(self):
        s = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert smoothness_energy(s) == 2.0

    def test_matches_brute_force_stencil(self, rng):
        s = rng.uniform(1, 9, size=(5, 6))
        expect = 0.0
        for b in range(5):
            for a in range(6):
                if b < 4:
                    expect += (s[b + 1, a] - s[b, a]) ** 2
                if a < 5:
                    expect += (s[b, a + 1] - s[b, a]) ** 2
        assert np.isclose(smoothness_energy(s), expect, rtol=1e-12)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_one_b_scan_or_one_a_scan(self, axis):
        # one line per surface; the second holds an inf, whose differences
        # are +-inf, so its energy and weight denominator are inf
        lines = np.array([[1.0, 3.0, 4.0, 8.0], [2.0, 2.0, np.inf, 5.0]])
        pos = np.expand_dims(lines, axis)  # (2, 1, 4) or (2, 4, 1)
        assert smoothness_energy(pos[0]) == 21.0  # 2^2 + 1^2 + 4^2
        assert smoothness_energy(pos) == np.inf
        want = np.array([[-4.0, 2.0, -6.0, 8.0], [0.0, -np.inf, np.inf, -np.inf]])
        assert np.array_equal(grad_smoothness(pos), np.expand_dims(want, axis))
        # gradient-norm sums 2 + 1 + 4 and inf
        assert smoothness_weights(pos, 0.7).lambda_l.tolist() == [0.7 / 7.0, 0.0]

    def test_invariant_to_constant_shift_and_positive_otherwise(self, rng):
        s = rng.uniform(1, 9, size=(4, 4))
        assert np.isclose(smoothness_energy(s), smoothness_energy(s + 11.5), rtol=1e-12)
        assert smoothness_energy(s) > 0.0


class TestDiceCrossEntropy:
    def test_one_hot_prediction_is_near_zero(self, rng):
        lab = rng.integers(0, 3, size=(2, 3, 4)).astype(np.int16)
        lab = np.sort(lab, axis=-1)  # label maps are monotone along rows
        m = LabelMap(lab, n_surfaces=2)
        p = np.stack([(lab == c).astype(float) for c in range(3)])
        assert dice_cross_entropy(p, m) < 1e-5

    def test_one_hot_of_the_labels_is_exactly_zero(self, rng):
        # every picked probability is 1 (CE -0.0) and every class's Dice is
        # (2c + s) / (2c + s) = 1.0, absent classes included: this is why
        # segmentation_loss skips the term when no class probabilities are given
        for _ in range(20):
            n_s = int(rng.integers(1, 5))
            pos = np.sort(rng.integers(1, 13, size=(n_s, 3, 4)), axis=0).astype(float)
            m = surfaces_to_labels(SurfaceSet(pos), 12)
            p = np.stack([(m.labels == c).astype(float) for c in range(n_s + 1)])
            assert dice_cross_entropy(p, m) == 0.0

    def test_uniform_two_class_ce_is_log_two(self):
        lab = np.zeros((2, 2, 4), dtype=np.int16)
        lab[..., 2:] = 1
        m = LabelMap(lab, n_surfaces=1)
        p = np.full((2, 2, 2, 4), 0.5)
        value = dice_cross_entropy(p, m)
        # CE part is log 2; the Dice part is 0.5 for balanced classes
        assert np.isclose(value - 0.5, np.log(2.0), atol=1e-9)

    def test_matches_direct_summation(self, rng):
        lab = np.sort(rng.integers(0, 3, size=(2, 2, 6)), axis=-1).astype(np.int16)
        m = LabelMap(lab, n_surfaces=2)
        p = random_distribution(rng, (2, 2, 6, 3))
        p = np.moveaxis(p, -1, 0)
        got = dice_cross_entropy(p, m)
        ce = -np.mean(
            [
                np.log(p[lab[b, a, r], b, a, r])
                for b in range(2) for a in range(2) for r in range(6)
            ]
        )
        dice = 0.0
        for c in range(3):
            y = (lab == c).astype(float)
            dice += (2 * (p[c] * y).sum() + 1e-6) / (p[c].sum() + y.sum() + 1e-6)
        expect = ce + (1 - dice / 3)
        assert np.isclose(got, expect, rtol=1e-10)

    def test_nan_rejected(self):
        lab = np.zeros((2, 2, 4), dtype=np.int16)
        lab[..., 2:] = 1
        p = np.full((2, 2, 2, 4), 0.5)
        p[0, 1, 1, 2] = np.nan
        with pytest.raises(ValidationError):
            dice_cross_entropy(p, LabelMap(lab, n_surfaces=1))

    def test_class_count_mismatch_rejected(self, rng):
        lab = np.zeros((1, 1, 4), dtype=np.int16)
        m = LabelMap(lab, n_surfaces=2)  # 3 classes expected
        p = np.full((2, 1, 1, 4), 0.5)
        with pytest.raises(ValidationError):
            dice_cross_entropy(p, m)


class TestSmoothnessWeights:
    def test_formula(self):
        # gradient-norm sum of 20 with base 0.1 gives 0.005
        pos = np.zeros((1, 2, 3))
        pos[0, 0] = [1.0, 6.0, 11.0]
        pos[0, 1] = [1.0, 6.0, 11.0]
        # per (b, a) norms: a-diffs are 5 at 4 positions, b-diffs 0 -> sum 20
        w = smoothness_weights(SurfaceSet(pos + 10), 0.1)
        assert np.isclose(w.lambda_l[0], 0.005, rtol=1e-12)

    def test_homogeneity(self, rng):
        pos = rng.uniform(20, 40, size=(2, 4, 4))
        base = smoothness_weights(SurfaceSet(pos), 0.1).lambda_l
        doubled = pos.mean(axis=(1, 2), keepdims=True) + 2 * (
            pos - pos.mean(axis=(1, 2), keepdims=True)
        )
        scaled = smoothness_weights(SurfaceSet(doubled), 0.1).lambda_l
        assert np.allclose(scaled, base / 2.0, rtol=1e-10)

    def test_flat_surface_rejected(self):
        with pytest.raises(ValidationError):
            smoothness_weights(SurfaceSet(np.full((1, 3, 3), 5.0)), 0.1)

    @pytest.mark.parametrize("base", [-0.1, np.nan, np.inf])
    def test_base_that_is_negative_or_not_finite_rejected(self, rng, base):
        pos = rng.uniform(20, 40, size=(2, 4, 4))
        with pytest.raises(ValidationError, match="lambda_l"):
            smoothness_weights(SurfaceSet(pos), base)


class TestSegmentationLoss:
    def _case(self, rng, perfect=False):
        n_s, n_b, n_a, n_r = 2, 3, 4, 10
        gt = rng.integers(3, 8, size=(n_s, n_b, n_a)).astype(float)
        gt.sort(axis=0)
        if perfect:
            q = np.zeros((n_s, n_b, n_a, n_r))
            for l in range(n_s):
                np.put_along_axis(
                    q[l], gt[l][..., None].astype(int) - 1, 1.0, axis=-1
                )
        else:
            q = random_distribution(rng, (n_s, n_b, n_a, n_r))
        m = surfaces_to_labels(SurfaceSet(np.sort(gt, axis=0)), n_r)
        p = np.stack([(m.labels == c).astype(float) for c in range(n_s + 1)])
        return q, p, gt, m

    def test_perfect_prediction_on_flat_gt_is_zero(self, rng):
        # flat gt would break the weight rule, so weights come from a
        # separate non-flat volume
        nonflat = rng.uniform(3, 9, size=(1, 3, 4))
        weights = smoothness_weights(SurfaceSet(nonflat), 0.1)
        gt = np.full((1, 2, 3), 5.0)
        q = delta_distribution((1, 2, 3, 10), 5)
        m = surfaces_to_labels(SurfaceSet(gt), 10)
        p = np.stack([(m.labels == c).astype(float) for c in range(2)])
        out = segmentation_loss(q, p, gt, m, weights)
        assert out["total"] < 1e-5

    def test_zero_smooth_weights_equals_other_three(self, rng):
        q, p, gt, m = self._case(rng)
        w0 = LossWeights(np.zeros(2))
        out = segmentation_loss(q, p, gt, m, w0)
        assert np.isclose(
            out["total"],
            out["dice_ce"] + out["cross_entropy"] + out["smooth_l1"],
            rtol=1e-12,
        )
        assert out["smoothness_weighted"] == 0.0

    @pytest.mark.parametrize("perfect", [False, True])
    def test_no_class_probs_equals_the_labels_one_hot(self, rng, perfect):
        q, p, gt, m = self._case(rng, perfect=perfect)
        weights = LossWeights(np.array([0.02, 0.03]))
        out = segmentation_loss(q, None, gt, m, weights)
        assert out == segmentation_loss(q, p, gt, m, weights)
        assert out["dice_ce"] == 0.0

    @pytest.mark.parametrize("with_class_probs", [False, True])
    def test_labels_off_the_distribution_grid_rejected(self, rng, with_class_probs):
        q, p, gt, m = self._case(rng)
        weights = LossWeights(np.array([0.02, 0.03]))
        with pytest.raises(DimensionError, match="labels are on a"):
            segmentation_loss(q, p if with_class_probs else None, gt,
                              LabelMap(m.labels[:, :-1], 2), weights)

    def test_total_is_sum_of_independently_computed_terms(self, rng):
        q, p, gt, m = self._case(rng)
        weights = LossWeights(np.array([0.02, 0.03]))
        out = segmentation_loss(q, p, gt, m, weights)
        pred = soft_argmax(q)
        expect = (
            dice_cross_entropy(p, m)
            + cross_entropy(q, gt)
            + smooth_l1(pred, gt)
            + 0.02 * smoothness_energy(pred[0])
            + 0.03 * smoothness_energy(pred[1])
        )
        assert np.isclose(out["total"], expect, atol=1e-10)


class TestSemiSupervisedAlignmentLoss:
    def test_full_annotation_reduces_to_supervised_bitwise(self, rng):
        gt = rng.uniform(5, 20, size=(2, 5, 4))
        pred = rng.uniform(5, 20, size=(2, 5, 4))
        d = rng.uniform(-3, 3, 5)
        full = np.ones(5, dtype=bool)
        assert alignment_loss_semi(gt, pred, d, full) == surface_alignment_loss(gt, d)

    def test_no_annotation_with_predictions_equal_to_gt(self, rng):
        gt = rng.uniform(5, 20, size=(2, 4, 3))
        d = rng.uniform(-2, 2, 4)
        none = np.zeros(4, dtype=bool)
        assert alignment_loss_semi(gt, gt.copy(), d, none) == surface_alignment_loss(gt, d)

    def test_random_mix_matches_assemble_then_supervised(self, rng):
        gt = rng.uniform(5, 20, size=(3, 6, 4))
        pred = rng.uniform(5, 20, size=(3, 6, 4))
        d = rng.uniform(-3, 3, 6)
        mask = rng.uniform(size=6) < 0.5
        mixed = np.where(mask[None, :, None], gt, pred)
        assert alignment_loss_semi(gt, pred, d, mask) == surface_alignment_loss(mixed, d)

    def test_mask_length_guard(self, rng):
        gt = rng.uniform(5, 20, size=(1, 4, 3))
        with pytest.raises(DimensionError):
            mixed_surfaces(gt, gt, np.ones(5, dtype=bool))


def relative_error(analytic, fd):
    scale = max(np.abs(fd).max(), 1.0)
    return np.abs(analytic - fd).max() / scale


def central_difference(fn, x, h=1e-4):
    g = np.zeros_like(x, dtype=float)
    flat = g.ravel()
    xf = x.astype(float).ravel().copy()
    for i in range(xf.size):
        xp = xf.copy(); xp[i] += h
        xm = xf.copy(); xm[i] -= h
        flat[i] = (fn(xp.reshape(x.shape)) - fn(xm.reshape(x.shape))) / (2 * h)
    return g


class TestGradients:
    def test_constant_surface_smoothness_gradient_is_zero(self):
        g = grad_smoothness(np.full((4, 5), 6.0))
        assert (g == 0).all()

    def test_cross_entropy_gradient(self, rng):
        for _ in range(10):
            # probabilities bounded away from 0: the h^2/q^3 truncation term
            # of the central difference must stay below the tolerance
            q = random_distribution(rng, (2, 3, 8), floor=0.3)
            gt = rng.integers(1, 9, size=(2, 3)).astype(float)
            analytic = grad_cross_entropy(q, gt)
            fd = central_difference(lambda x: cross_entropy(x, gt), q)
            assert relative_error(analytic, fd) < 1e-5

    def test_smooth_l1_gradient(self, rng):
        for _ in range(10):
            gt = rng.uniform(3, 8, size=(2, 3, 4))
            t = rng.normal(0, 2, size=(2, 3, 4))
            t[np.abs(np.abs(t) - 1.0) < 0.02] += 0.05  # keep clear of the kink
            pred = gt + t
            analytic = grad_smooth_l1(pred, gt)
            fd = central_difference(lambda x: smooth_l1(x, gt), pred)
            assert relative_error(analytic, fd) < 1e-5

    def test_smoothness_gradient(self, rng):
        for _ in range(10):
            s = rng.uniform(2, 9, size=(4, 5))
            analytic = grad_smoothness(s)
            fd = central_difference(smoothness_energy, s)
            assert relative_error(analytic, fd) < 1e-5

    def test_alignment_gradient(self, rng):
        for _ in range(10):
            pos = rng.uniform(5, 25, size=(2, 5, 3))
            d = rng.uniform(-4, 4, 5)
            analytic = grad_alignment(pos, d)
            fd = central_difference(lambda x: surface_alignment_loss(pos, x), d)
            assert relative_error(analytic, fd) < 1e-5

    def test_alignment_semi_gradients(self, rng):
        for _ in range(10):
            gt = rng.uniform(5, 25, size=(2, 5, 3))
            pred = rng.uniform(5, 25, size=(2, 5, 3))
            d = rng.uniform(-4, 4, 5)
            mask = rng.uniform(size=5) < 0.5
            g_d, g_r = grad_alignment_semi(gt, pred, d, mask)
            fd_d = central_difference(
                lambda x: alignment_loss_semi(gt, pred, x, mask), d
            )
            assert relative_error(g_d, fd_d) < 1e-5
            fd_r = central_difference(
                lambda x: alignment_loss_semi(gt, x, d, mask), pred
            )
            assert relative_error(g_r, fd_r) < 1e-5
            assert (g_r[:, mask, :] == 0).all()

    def test_gradient_descent_on_smoothness_flattens(self, rng):
        s = rng.uniform(4, 8, size=(8, 8))
        step = 0.1
        prev = smoothness_energy(s)
        for _ in range(20000):
            g = grad_smoothness(s)
            if np.abs(g).max() <= 1e-6:
                break
            s = s - step * g
            cur = smoothness_energy(s)
            assert cur <= prev + 1e-12
            prev = cur
        assert np.abs(grad_smoothness(s)).max() <= 1e-6
        assert np.ptp(s) < 1e-5
