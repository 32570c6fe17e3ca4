import tracemalloc

import numpy as np
import pytest

from oct_align import io
from oct_align.core import (
    DisplacementField,
    LabelMap,
    OctVolume,
    SurfaceSet,
    first_best,
    most_frequent_int,
    surfaces_to_labels,
)
from oct_align.errors import (
    DimensionError,
    LabelMonotoneError,
    SurfaceOrderError,
    ValidationError,
)
from oct_align.losses import soft_argmax


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_in_the_last_b_scan_rejected(self, bad):
        data = np.zeros((3, 4, 5), np.float32)
        data[-1, -1, -1] = bad
        with pytest.raises(ValidationError, match="^volume intensities must all be finite$"):
            OctVolume(data)

    def test_finiteness_checked_one_b_scan_at_a_time(self):
        # np.isfinite of the whole volume was a bool mask of a quarter of its bytes
        data = np.zeros((49, 256, 192), np.float32)
        tracemalloc.start()
        try:
            OctVolume(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mask = 256 * 192  # one B-scan's bool mask
        assert peak < 2 * mask, peak

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

    @pytest.mark.parametrize("n_surfaces", [0, 1, 2])
    def test_equal_positions_are_ordered(self, n_surfaces):
        assert SurfaceSet(np.full((n_surfaces, 2, 2), 5.0)).require_ordered() is None


class TestSurfaceDistribution:
    """A per-A-scan row distribution, checked where the package takes one in:
    read_distributions (finite, nonnegative) and the losses (sum to 1)."""

    def test_normalized_ok(self, tmp_path):
        path = tmp_path / "q.bin"
        io.write_distributions(path, np.full((1, 2, 2, 4), 0.25))
        q = io.read_distributions(path)
        assert q.shape[-1] == 4
        assert np.allclose(soft_argmax(q[0]), 2.5)

    def test_unnormalized_rejected(self, tmp_path):
        q = np.full((1, 2, 2, 4), 0.25)
        q[0, 0, 0, 0] += 1e-4
        path = tmp_path / "q.bin"
        io.write_distributions(path, q)
        with pytest.raises(ValidationError):
            soft_argmax(io.read_distributions(path)[0])


class TestDisplacementField:
    def test_fractional_transverse_rejected(self):
        with pytest.raises(ValidationError):
            DisplacementField(np.zeros(3), np.array([0.0, 0.5, 1.0]))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            DisplacementField(np.zeros(3), np.zeros(4, dtype=np.int64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0 ** 63, -2.0 ** 63, 1e300])
    def test_transverse_outside_int64_rejected(self, bad):
        # checked before the int64 cast, which would warn and wrap
        with pytest.raises(ValidationError, match=r"finite and below 2\*\*63"):
            DisplacementField(np.zeros(2), np.array([0.0, bad]))


class TestLabelMap:
    def test_non_monotone_rejected_with_coordinates(self):
        lab = np.zeros((2, 2, 4), dtype=np.int16)
        lab[1, 0] = [0, 1, 0, 1]
        with pytest.raises(LabelMonotoneError, match="b=2, a=1"):
            LabelMap(lab, n_surfaces=1)

    def test_first_drop_named_as_by_the_whole_volume_diff(self):
        # drops in two A-scans of each of two B-scans, one at the last row
        # and one at row 1 (0-based); (b, a, r) plants a drop from row r-1
        # to r, and each plant leaves every other A-scan monotone
        base = np.broadcast_to(np.repeat(np.arange(4, dtype=np.int16), 5), (5, 7, 20))
        drops = [(1, 2, 9), (1, 6, 1), (3, 0, 4), (3, 5, 19)]
        for k in range(len(drops)):
            lab = base.copy()
            for b, a, r in drops[k:]:
                lab[b, a, r - 1], lab[b, a, r] = 3, 0
            b, a = np.argwhere((np.diff(lab, axis=2) < 0).any(axis=2))[0]
            assert (b, a) == drops[k][:2]
            with pytest.raises(LabelMonotoneError,
                               match=f"at b={b + 1}, a={a + 1}$"):
                LabelMap(lab, n_surfaces=3)

    def test_no_volume_sized_temporaries(self):
        # a whole-volume int16 np.diff and its bool mask took 3 bytes per voxel
        runs = np.repeat(np.arange(5, dtype=np.int16), [30, 40, 50, 40, 32])
        lab = np.ascontiguousarray(np.broadcast_to(runs, (49, 256, 192)))
        tracemalloc.start()
        try:
            LabelMap(lab, n_surfaces=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * lab.size

    def test_single_row_accepted(self):
        lab = np.array([[[0], [1]], [[2], [2]]])
        m = LabelMap(lab, n_surfaces=2)
        assert m.labels.dtype == np.int16 and np.array_equal(m.labels, lab)

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

    @pytest.mark.parametrize("n_rows", [1, 8])
    def test_no_surfaces_all_zero(self, n_rows):
        s = SurfaceSet(np.zeros((0, 2, 3)))
        m = surfaces_to_labels(s, n_rows)
        assert m.n_surfaces == 0
        assert m.labels.dtype == np.int16
        assert np.array_equal(m.labels, np.zeros((2, 3, n_rows)))

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

    @pytest.mark.parametrize("n_surf", [1, 2, 5])
    def test_counting_equals_the_comparison_of_every_surface_with_every_row(
            self, rng, n_surf):
        # the reference compares each surface with each row in one array;
        # the positions mix fractional rows, whole rows, rows exactly 1.0
        # and n_rows, and surfaces that coincide
        n_rows = 24
        pos = rng.uniform(1, n_rows, size=(n_surf, 6, 7))
        pos[:, ::2] = np.round(pos[:, ::2])
        pos[:, 1, :3] = 1.0
        pos[:, 3, :3] = float(n_rows)
        pos = np.sort(pos, axis=0)
        if n_surf > 1:
            pos[1, 5] = pos[0, 5]
        rows = np.arange(1, n_rows + 1, dtype=np.float64)
        want = (pos[..., None] <= rows).sum(axis=0).astype(np.int16)
        got = surfaces_to_labels(SurfaceSet(pos), n_rows).labels
        assert got.dtype == np.int16
        assert np.array_equal(got, want)


def counted_labels(pos, n_rows):
    """Reference: each surface adds 1 at the first row it claims, 1-based
    row ceil(S), and an int16 cumulative sum along the rows counts them."""
    _, n_b, n_a = pos.shape
    labels = np.zeros((n_b, n_a, n_rows), dtype=np.int16)
    flat = labels.reshape(-1)
    base = np.arange(0, n_b * n_a * n_rows, n_rows).reshape(n_b, n_a)
    for surface in pos:
        flat[base + np.ceil(surface).astype(np.intp) - 1] += 1
    np.cumsum(labels, axis=2, out=labels)
    return labels


class TestLabelRuns:
    @pytest.mark.parametrize("case", ["on_rows", "coincident", "first_and_last_row", "mixed"])
    def test_runs_equal_the_counting_construction_bitwise(self, rng, case):
        n_rows = 20
        pos = rng.uniform(1, n_rows, size=(4, 3, 5))
        if case == "on_rows":
            pos = np.round(pos)
        elif case == "coincident":
            pos[1:3] = pos[1]
        elif case == "first_and_last_row":
            pos[0], pos[-1] = 1.0, float(n_rows)
        else:
            # one case per A-scan column
            pos[..., 0] = np.round(pos[..., 0])
            pos[:2, :, 1] = 1.0
            pos[2:, :, 2] = float(n_rows)
            pos[1:, :, 3] = 7.0
        pos = np.sort(pos, axis=0)
        got = surfaces_to_labels(SurfaceSet(pos), n_rows).labels
        assert got.dtype == np.int16
        assert got.tobytes() == counted_labels(pos, n_rows).tobytes()


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
    """Surfaces read back from the labels ``surfaces_to_labels`` gives them,
    by the ``brute_force_surfaces`` oracle."""

    def test_flat_round_trip(self):
        m = surfaces_to_labels(flat_surfaces(5.0), 10)
        assert (brute_force_surfaces(m.labels, 1) == 5.0).all()

    def test_exhaustive_single_column_small_instances(self):
        # every ordered integer placement of L <= 2 surfaces with R <= 8
        for n_r in range(2, 9):
            for n_s in (1, 2):
                cuts = [
                    (i, j)
                    for i in range(1, n_r + 1)
                    for j in range(i, n_r + 1)
                ] if n_s == 2 else [(i, i) for i in range(1, n_r + 1)]
                for cut in cuts:
                    pos = np.array(cut[:n_s], dtype=np.float64)[:, None, None]
                    s = SurfaceSet(np.broadcast_to(pos, (n_s, 2, 1)))
                    m = surfaces_to_labels(s, n_r)
                    assert (brute_force_surfaces(m.labels, n_s) == s.positions).all()

    def test_random_monotone_columns_match_brute_force(self, rng):
        for _ in range(25):
            # cuts < R so every surface lies on a row
            cuts = np.sort(rng.integers(0, 8, size=(2, 3, 2)), axis=-1)
            lab = np.zeros((2, 3, 8), dtype=np.int16)
            rows = np.arange(8)
            lab += (rows >= cuts[..., :1]).astype(np.int16)
            lab += (rows >= cuts[..., 1:]).astype(np.int16)
            expect = brute_force_surfaces(lab, 2)
            assert (expect <= 8).all()
            m = surfaces_to_labels(SurfaceSet(expect), 8)
            assert (m.labels == lab).all()

    def test_integer_surfaces_round_trip_exactly(self, rng):
        pos = np.sort(rng.integers(1, 17, size=(3, 4, 5)).astype(float), axis=0)
        m = surfaces_to_labels(SurfaceSet(pos), 16)
        assert (brute_force_surfaces(m.labels, 3) == pos).all()

    def test_fractional_surfaces_round_trip_to_ceil(self, rng):
        # 100 random ordered triples over R=32
        for _ in range(100):
            pos = np.sort(rng.uniform(1.0, 32.0, size=(3, 2, 3)), axis=0)
            m = surfaces_to_labels(SurfaceSet(pos), 32)
            assert (brute_force_surfaces(m.labels, 3) == np.ceil(pos)).all()


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


class TestFirstBest:
    @pytest.mark.parametrize("radius", [1, 4, 30])
    def test_ties_go_to_the_smaller_then_the_negative_shift(self, radius):
        # the template chain passes one score vector and transverse matching
        # one row per pair; both get the first best in search_order
        rows, want = [], []
        for k in range(1, radius + 1):
            tie = np.zeros(2 * radius + 1)
            tie[[radius - k, radius + k]] = 1.0
            with_zero = tie.copy()
            with_zero[radius] = 1.0
            rows += [tie, with_zero]
            want += [-k, 0]
        rows.append(np.full(2 * radius + 1, -3.0))
        want.append(0)
        assert first_best(np.array(rows), radius).tolist() == want
        assert [int(first_best(row, radius)) for row in rows] == want
