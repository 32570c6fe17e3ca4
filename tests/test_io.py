import json

import numpy as np
import pytest

from oct_align import io
from oct_align.core import DisplacementField, LabelMap, OctVolume, SurfaceSet
from oct_align.errors import FormatError
from oct_align.synth import PhantomSpec, generate_phantom


class TestVolumeFile:
    def test_round_trip(self, tmp_path, rng):
        vol = OctVolume(rng.uniform(size=(3, 4, 6)).astype(np.float32),
                        spacing=(3.24, 6.7, 67.0))
        path = tmp_path / "v.bin"
        io.write_volume(path, vol)
        back = io.read_volume(path)
        assert np.array_equal(back.data, vol.data)
        assert back.spacing == vol.spacing

    def test_header_is_json_line(self, tmp_path, rng):
        vol = OctVolume(rng.uniform(size=(2, 2, 3)).astype(np.float32))
        path = tmp_path / "v.bin"
        io.write_volume(path, vol)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["dtype"] == "f32le"
        assert header["n_b"] == 2

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not json\n" + b"\x00" * 16)
        with pytest.raises(FormatError, match="malformed JSON"):
            io.read_volume(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"n_b": 2}\n')
        with pytest.raises(FormatError, match="missing keys"):
            io.read_volume(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        vol = OctVolume(rng.uniform(size=(2, 2, 3)).astype(np.float32))
        path = tmp_path / "v.bin"
        io.write_volume(path, vol)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError, match="payload"):
            io.read_volume(path)


class TestSurfaceCsv:
    def test_round_trip(self, tmp_path):
        vol, surf = generate_phantom(PhantomSpec(seed=0, n_b=4, n_a=8))
        path = tmp_path / "s.csv"
        io.write_surfaces(path, surf)
        back = io.read_surfaces(path)
        assert np.array_equal(back.positions, surf.positions)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b,c,d\n1,1,1,5.0\n")
        with pytest.raises(FormatError, match="expected header"):
            io.read_surfaces(path)

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("surface,b,a,r\n1,1,1,5.0\n1,2,2,6.0\n")
        with pytest.raises(FormatError, match="complete"):
            io.read_surfaces(path)


class TestDisplacementCsv:
    def test_round_trip(self, tmp_path, rng):
        d = DisplacementField(axial=rng.uniform(-5, 5, 6),
                              transverse=rng.integers(-5, 6, 6))
        path = tmp_path / "d.csv"
        io.write_displacements(path, d)
        back = io.read_displacements(path)
        assert np.array_equal(back.axial, d.axial)
        assert np.array_equal(back.transverse, d.transverse)

    def test_b_column_must_cover_range(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("b,axial,transverse\n1,0.5,0\n3,0.2,0\n")
        with pytest.raises(FormatError, match="1..N_B"):
            io.read_displacements(path)


@pytest.mark.parametrize("reader, keys", [
    (io.read_volume, {"n_b": 2, "n_a": 2, "n_r": 3, "spacing_um": [1, 1, 1],
                      "dtype": "f32le"}),
    (io.read_distributions, {"n_l": 1, "n_b": 2, "n_a": 2, "n_r": 3, "dtype": "f64le"}),
    (io.read_labels, {"n_b": 2, "n_a": 2, "n_r": 3, "n_surfaces": 1, "dtype": "u8"}),
])
@pytest.mark.parametrize("bad", ["x", None, [2], -1])
def test_non_integer_or_negative_header_dims_rejected(tmp_path, reader, keys, bad):
    path = tmp_path / "bad.bin"
    path.write_bytes(json.dumps({**keys, "n_b": bad}).encode() + b"\n" + b"\x00" * 96)
    with pytest.raises(FormatError, match="header fields"):
        reader(path)



@pytest.mark.parametrize("bad", ["x", 3.0, ["a", 1, 1]])
def test_non_numeric_spacing_rejected(tmp_path, bad):
    path = tmp_path / "bad.bin"
    header = {"n_b": 2, "n_a": 2, "n_r": 3, "spacing_um": bad, "dtype": "f32le"}
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 48)
    with pytest.raises(FormatError, match="spacing_um"):
        io.read_volume(path)


class TestDistributionAndLabelFiles:
    def test_distribution_round_trip(self, tmp_path, rng):
        q = rng.uniform(0.1, 1.0, size=(2, 3, 4, 8))
        q /= q.sum(axis=-1, keepdims=True)
        path = tmp_path / "q.bin"
        io.write_distributions(path, q)
        back = io.read_distributions(path)
        assert np.array_equal(back, q)  # f64 payload: exact

    def test_label_round_trip(self, tmp_path):
        lab = np.zeros((2, 3, 6), dtype=np.int16)
        lab[..., 3:] = 1
        m = LabelMap(lab, n_surfaces=1)
        path = tmp_path / "m.bin"
        io.write_labels(path, m)
        back = io.read_labels(path)
        assert np.array_equal(back.labels, m.labels)
        assert back.n_surfaces == 1


def test_write_json_is_deterministic(tmp_path):
    obj = {"b": 2, "a": [1.5, 2.25], "nested": {"z": 1, "y": 0}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    io.write_json(p1, obj)
    io.write_json(p2, obj)
    assert p1.read_bytes() == p2.read_bytes()
