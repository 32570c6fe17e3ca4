import numpy as np
import pytest

from oct_align.core import (
    DisplacementField,
    LabelMap,
    OctVolume,
    SurfaceClampWarning,
    SurfaceDistribution,
    SurfaceSet,
    labels_to_surfaces,
    most_frequent_int,
    surfaces_to_labels,
)
from oct_align.errors import (
    DimensionError,
    LabelMonotoneError,
    SurfaceOrderError,
    ValidationError,
)


def flat_surfaces(value, n_b=2, n_a=3, n_s=1):
    return SurfaceSet(np.full((n_s, n_b, n_a), float(value)))


class TestOctVolume:
    def test_valid_construction_is_float32_and_readonly(self):
        v = OctVolume(np.zeros((2, 3, 4)))
        assert v.data.dtype == np.float32
        assert not v.data.flags.writeable
        assert (v.n_b, v.n_a, v.n_r) == (2, 3, 4)

    @pytest.mark.parametrize("shape", [(1, 3, 4), (2, 0, 4), (2, 3, 1)])
    def test_too_small_dims_rejected(self, shape):
        with pytest.raises(ValidationError):
            OctVolume(np.zeros(shape))

    def test_single_b_scan_guard(self):
        # alignment needs N_B >= 2; the type enforces it at construction
        with pytest.raises(ValidationError):
            OctVolume(np.zeros((1, 4, 8)))

    def test_nonfinite_rejected(self):
        data = np.zeros((2, 3, 4))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            OctVolume(data)

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValidationError):
            OctVolume(np.zeros((2, 3, 4)), spacing=(0.0, 1.0, 1.0))


class TestSurfaceSet:
    def test_positions_below_one_rejected(self):
        with pytest.raises(ValidationError):
            SurfaceSet(np.full((1, 2, 2), 0.5))

    def test_ordering_predicate(self):
        pos = np.stack([np.full((2, 2), 5.0), np.full((2, 2), 3.0)])
        s = SurfaceSet(pos)
        with pytest.raises(SurfaceOrderError, match=r"b=1, a=1.*surface 1"):
            s.require_ordered()

    def test_equal_positions_are_ordered(self):
        pos = np.stack([np.full((2, 2), 5.0), np.full((2, 2), 5.0)])
        SurfaceSet(pos).require_ordered()

    def test_names_default_and_mismatch(self):
        s = flat_surfaces(2.0, n_s=2)
        assert s.names == ("surface_1", "surface_2")
        with pytest.raises(DimensionError):
            SurfaceSet(np.full((2, 2, 2), 2.0), names=("only_one",))


class TestSurfaceDistribution:
    def test_normalized_ok(self):
        q = np.full((2, 2, 4), 0.25)
        assert SurfaceDistribution(q).n_rows == 4

    def test_unnormalized_rejected(self):
        q = np.full((2, 2, 4), 0.25)
        q[0, 0, 0] += 1e-4
        with pytest.raises(ValidationError):
            SurfaceDistribution(q)

    def test_negative_rejected(self):
        q = np.full((1, 1, 2), 0.5)
        q[0, 0] = [1.5, -0.5]
        with pytest.raises(ValidationError):
            SurfaceDistribution(q)


class TestDisplacementField:
    def test_fractional_transverse_rejected(self):
        with pytest.raises(ValidationError):
            DisplacementField(np.zeros(3), np.array([0.0, 0.5, 1.0]))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            DisplacementField(np.zeros(3), np.zeros(4, dtype=np.int64))

    def test_zeros_helper(self):
        d = DisplacementField.zeros(5)
        assert d.n_b == 5
        assert d.transverse.dtype == np.int64


class TestLabelMap:
    def test_non_monotone_rejected_with_coordinates(self):
        lab = np.zeros((2, 2, 4), dtype=np.int16)
        lab[1, 0] = [0, 1, 0, 1]
        with pytest.raises(LabelMonotoneError, match="b=2, a=1"):
            LabelMap(lab, n_surfaces=1)

    def test_out_of_range_rejected(self):
        lab = np.full((2, 2, 4), 3, dtype=np.int16)
        with pytest.raises(ValidationError):
            LabelMap(lab, n_surfaces=2)


class TestSurfacesToLabels:
    def test_flat_surface_splits_rows(self):
        # surface at r=5 with R=10: rows 1..4 above it, rows 5..10 at/below
        s = flat_surfaces(5.0)
        m = surfaces_to_labels(s, 10)
        assert (m.labels[..., :4] == 0).all()
        assert (m.labels[..., 4:] == 1).all()

    def test_no_surfaces_all_zero(self):
        s = SurfaceSet(np.zeros((0, 2, 3)))
        m = surfaces_to_labels(s, 8)
        assert m.n_surfaces == 0
        assert (m.labels == 0).all()

    def test_unordered_input_rejected(self):
        pos = np.stack([np.full((2, 2), 6.0), np.full((2, 2), 4.0)])
        with pytest.raises(SurfaceOrderError):
            surfaces_to_labels(SurfaceSet(pos), 10)

    def test_label_counts_partition_rows(self, rng):
        pos = np.sort(rng.uniform(1, 32, size=(3, 4, 5)), axis=0)
        m = surfaces_to_labels(SurfaceSet(pos), 32)
        counts = np.stack([(m.labels == l).sum(axis=2) for l in range(4)])
        assert (counts.sum(axis=0) == 32).all()

    def test_position_beyond_rows_rejected(self):
        with pytest.raises(ValidationError):
            surfaces_to_labels(flat_surfaces(11.0), 10)


def brute_force_surfaces(labels, n_surfaces):
    """Definition-level oracle: 1 + count of rows with label < l."""
    n_b, n_a, n_r = labels.shape
    out = np.zeros((n_surfaces, n_b, n_a))
    for l in range(1, n_surfaces + 1):
        for b in range(n_b):
            for a in range(n_a):
                out[l - 1, b, a] = 1 + sum(
                    1 for r in range(n_r) if labels[b, a, r] < l
                )
    return out


class TestLabelsToSurfaces:
    def test_flat_round_trip(self):
        m = surfaces_to_labels(flat_surfaces(5.0), 10)
        back = labels_to_surfaces(m)
        assert (back.positions == 5.0).all()

    def test_all_zero_labels_clamped_and_flagged(self):
        m = LabelMap(np.zeros((2, 2, 6), dtype=np.int16), n_surfaces=1)
        with pytest.warns(SurfaceClampWarning):
            s = labels_to_surfaces(m)
        assert (s.positions == 6.0).all()

    def test_exhaustive_single_column_small_instances(self):
        # every monotone label column with R <= 8, L <= 2
        for n_r in range(2, 9):
            for n_s in (1, 2):
                # monotone columns are fixed by their jump rows
                cuts = [
                    (i, j)
                    for i in range(n_r + 1)
                    for j in range(i, n_r + 1)
                ] if n_s == 2 else [(i, i) for i in range(n_r + 1)]
                for i, j in cuts:
                    col = np.zeros(n_r, dtype=np.int16)
                    col[i:] += 1
                    if n_s == 2:
                        col[j:] += 1
                    lab = np.tile(col, (2, 1, 1))
                    m = LabelMap(lab, n_surfaces=n_s)
                    expect = brute_force_surfaces(lab, n_s)
                    clamp = expect > n_r
                    expect = np.where(clamp, n_r, expect)
                    if clamp.any():
                        with pytest.warns(SurfaceClampWarning):
                            got = labels_to_surfaces(m)
                    else:
                        got = labels_to_surfaces(m)
                    assert (got.positions == expect).all()

    def test_random_monotone_columns_match_brute_force(self, rng):
        for _ in range(25):
            # cuts < R so every surface is reached (clamping covered above)
            cuts = np.sort(rng.integers(0, 8, size=(2, 3, 2)), axis=-1)
            lab = np.zeros((2, 3, 8), dtype=np.int16)
            rows = np.arange(8)
            lab += (rows >= cuts[..., :1]).astype(np.int16)
            lab += (rows >= cuts[..., 1:]).astype(np.int16)
            m = LabelMap(lab, n_surfaces=2)
            expect = brute_force_surfaces(lab, 2)
            assert (expect <= 8).all()
            got = labels_to_surfaces(m)
            assert (got.positions == expect).all()
            got.require_ordered()

    def test_integer_surfaces_round_trip_exactly(self, rng):
        pos = np.sort(rng.integers(1, 17, size=(3, 4, 5)).astype(float), axis=0)
        s = SurfaceSet(pos)
        back = labels_to_surfaces(surfaces_to_labels(s, 16))
        assert (back.positions == pos).all()

    def test_fractional_surfaces_round_trip_to_ceil(self, rng):
        # 100 random ordered triples over R=32
        for _ in range(100):
            pos = np.sort(rng.uniform(1.0, 32.0, size=(3, 2, 3)), axis=0)
            s = SurfaceSet(pos)
            back = labels_to_surfaces(surfaces_to_labels(s, 32))
            assert (back.positions == np.ceil(pos)).all()


class TestMostFrequentInt:
    def test_plain_mode(self):
        assert most_frequent_int([3, 3, 1, 2]) == 3

    def test_tie_prefers_first_occurrence(self):
        assert most_frequent_int([5, 5, -2, -2, 9]) == 5
        assert most_frequent_int([-2, -2, 5, 5, 9]) == -2

    def test_shift_invariance_of_choice(self, rng):
        for _ in range(20):
            v = rng.integers(-6, 7, size=12)
            c = int(rng.integers(-30, 31))
            assert most_frequent_int(v + c) == most_frequent_int(v) + c
