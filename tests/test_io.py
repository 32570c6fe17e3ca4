import json
import math
import os
import threading
import tracemalloc
from io import StringIO

import numpy as np
import pytest

from oct_align import io
from oct_align.core import DisplacementField, LabelMap, OctVolume, SurfaceSet
from oct_align.errors import FormatError, ValidationError
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
        vol, surf = generate_phantom(PhantomSpec(seed=0, n_b=4, n_a=12))
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

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("surface,b,a,r\n2,1,2,8.5\n1,1,1,5.0\n2,1,1,7.0\n1,1,2,6.0\n")
        assert io.read_surfaces(path).positions.tolist() == [[[5.0, 6.0]], [[7.0, 8.5]]]

    def test_duplicate_row_is_a_format_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("surface,b,a,r\n1,1,1,5.0\n1,1,1,5.0\n1,1,2,6.0\n1,2,1,7.0\n")
        with pytest.raises(FormatError, match="duplicate or missing"):
            io.read_surfaces(path)

    @pytest.mark.parametrize("r", ["nan", "inf", "-inf"])
    def test_non_finite_row_is_a_validation_error(self, tmp_path, r):
        path = tmp_path / "s.csv"
        path.write_text(f"surface,b,a,r\n1,1,1,5.0\n1,1,2,{r}\n")
        with pytest.raises(ValidationError, match="finite"):
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
        with pytest.raises(FormatError, match=r"b indices must be integers in 1\.\.2,"):
            io.read_displacements(path)


@pytest.mark.parametrize("reader, keys", [
    (io.read_volume, {"n_b": 2, "n_a": 2, "n_r": 3, "spacing_um": [1, 1, 1],
                      "dtype": "f32le"}),
    (io.read_distributions, {"n_l": 1, "n_b": 2, "n_a": 2, "n_r": 3, "dtype": "f64le"}),
    (io.read_labels, {"n_b": 2, "n_a": 2, "n_r": 3, "n_surfaces": 1, "dtype": "u8"}),
])
@pytest.mark.parametrize("bad", ["x", None, [2], -1, 4.9, 4.0, " 4 ", True])
def test_non_integer_or_negative_header_dims_rejected(tmp_path, reader, keys, bad):
    path = tmp_path / "bad.bin"
    path.write_bytes(json.dumps({**keys, "n_b": bad}).encode() + b"\n" + b"\x00" * 96)
    with pytest.raises(FormatError, match="header field 'n_b' must be a nonnegative integer"):
        reader(path)



def test_distribution_dims_whose_product_overflows_int64_rejected(tmp_path):
    # 2**40 * 2**40 wraps to 0 in int64, which an empty payload would match
    path = tmp_path / "q.bin"
    header = {"n_l": 2 ** 40, "n_b": 2 ** 40, "n_a": 1, "n_r": 1, "dtype": "f64le"}
    path.write_bytes(json.dumps(header).encode() + b"\n")
    with pytest.raises(FormatError, match="payload"):
        io.read_distributions(path)


# one small valid file per binary reader: (reader, writer of it, payload item size)
BINARY_FILES = {
    "volume": (io.read_volume,
               lambda p: io.write_volume(p, OctVolume(np.ones((2, 3, 4), np.float32))), 4),
    "distributions": (io.read_distributions,
                      lambda p: io.write_distributions(p, np.full((1, 2, 3, 4), 0.25)), 8),
    "labels": (io.read_labels,
               lambda p: io.write_labels(p, LabelMap(np.zeros((2, 3, 4), np.int16), 1)), 1),
}


# each binary writer on a tiny input, with the exact bytes it writes
EXACT_BYTES = {
    "volume": (
        lambda p: io.write_volume(p, OctVolume(np.array([[[1.0, 2.0]], [[0.5, -1.0]]]))),
        b'{"dtype": "f32le", "n_a": 1, "n_b": 2, "n_r": 2, '
        b'"spacing_um": [3.24, 6.7, 67.0]}\n'
        + bytes.fromhex("0000803f 00000040 0000003f 000080bf")),
    "distributions": (
        lambda p: io.write_distributions(p, np.array([[[[0.25, 0.75]]]])),
        b'{"dtype": "f64le", "n_a": 1, "n_b": 1, "n_l": 1, "n_r": 2}\n'
        + bytes.fromhex("000000000000d03f 000000000000e83f")),
    "labels": (
        lambda p: io.write_labels(p, LabelMap(np.array([[[0, 1, 1]], [[0, 0, 2]]]), 2)),
        b'{"dtype": "u8", "n_a": 1, "n_b": 2, "n_r": 3, "n_surfaces": 2}\n'
        + bytes.fromhex("000101 000002")),
}


@pytest.mark.parametrize("name", sorted(EXACT_BYTES))
def test_binary_writers_write_exact_bytes(tmp_path, name):
    write, want = EXACT_BYTES[name]
    write(tmp_path / "f.bin")
    assert (tmp_path / "f.bin").read_bytes() == want


# payloads that need a conversion or a copy before they can be written:
# (array, header dtype)
_X = np.random.default_rng(5).normal(size=(3, 4, 6))
CONVERTED_PAYLOADS = {
    "sliced": (_X.astype(np.float32)[:, ::2, 1:5], "f32le"),
    "fortran-ordered": (np.asfortranarray(_X), "f64le"),
    "float64 as f32le": (_X, "f32le"),
    "big-endian >f4": (_X.astype(">f4"), "f32le"),
    "big-endian >f8": (_X.astype(">f8"), "f64le"),
    "int16 labels as u8": (np.floor(np.abs(_X) * 3).astype(np.int16), "u8"),
    "zero-size": (np.zeros((2, 0, 3), np.float32), "f32le"),
}


@pytest.mark.parametrize("name", sorted(CONVERTED_PAYLOADS))
def test_binary_payload_is_the_bytes_of_the_converted_array(tmp_path, name):
    array, dtype = CONVERTED_PAYLOADS[name]
    io._write_binary(tmp_path / "f.bin", {"n": 1}, array, dtype)
    header, payload = (tmp_path / "f.bin").read_bytes().split(b"\n", 1)
    assert json.loads(header) == {"dtype": dtype, "n": 1}
    assert payload == np.asarray(array, io._DTYPES[dtype]).tobytes()


@pytest.mark.parametrize("name, kind", [("distributions", "surface_distribution"),
                                        ("labels", "label_map")])
def test_header_with_the_old_kind_key_reads_back_unchanged(tmp_path, name, kind):
    # files written before the key was dropped carry it; readers ignore it
    write, want = EXACT_BYTES[name]
    reader = BINARY_FILES[name][0]
    write(tmp_path / "new.bin")
    header, payload = want.split(b"\n", 1)
    old = json.loads(header)
    old["kind"] = kind
    (tmp_path / "old.bin").write_bytes(json.dumps(old, sort_keys=True).encode() + b"\n"
                                       + payload)
    got, expect = reader(tmp_path / "old.bin"), reader(tmp_path / "new.bin")
    if name == "labels":
        assert got.n_surfaces == expect.n_surfaces
        got, expect = got.labels, expect.labels
    assert got.dtype == expect.dtype and np.array_equal(got, expect)


@pytest.mark.parametrize("name", sorted(BINARY_FILES))
@pytest.mark.parametrize("change", ["one item short", "one trailing byte", "no payload"])
def test_payload_size_mismatch_rejected(tmp_path, name, change):
    reader, write, itemsize = BINARY_FILES[name]
    path = tmp_path / "f.bin"
    write(path)
    header, payload = path.read_bytes().split(b"\n", 1)
    expected = len(payload)
    cut = {"one item short": payload[:-itemsize], "one trailing byte": payload + b"\0",
           "no payload": b""}[change]
    path.write_bytes(header + b"\n" + cut)
    with pytest.raises(FormatError,
                       match=f"f.bin: payload is {len(cut)} bytes, expected {expected}$"):
        reader(path)


@pytest.mark.parametrize("name", sorted(BINARY_FILES))
def test_huge_header_fails_before_allocating(tmp_path, monkeypatch, name):
    reader, write, itemsize = BINARY_FILES[name]
    path = tmp_path / "f.bin"
    write(path)
    header, payload = path.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    fields.update(n_b=10 ** 7, n_a=10 ** 7, n_r=10 ** 6 // itemsize)  # about 1e20 bytes
    path.write_bytes(json.dumps(fields).encode() + b"\n" + payload)

    def no_allocation(*args, **kwargs):
        raise AssertionError("the payload array was allocated")

    monkeypatch.setattr(io.np, "empty", no_allocation)
    expected = math.prod(fields[k] for k in ("n_l", "n_b", "n_a", "n_r") if k in fields)
    with pytest.raises(FormatError, match=f"payload is {len(payload)} bytes, "
                                          f"expected {expected * itemsize}$"):
        reader(path)


def payload_of(read):
    """The array inside what a binary reader returned."""
    return getattr(read, "data", getattr(read, "labels", read))


@pytest.mark.parametrize("name", sorted(BINARY_FILES))
@pytest.mark.parametrize("cut", [0, 1])
def test_payload_read_through_a_pipe(tmp_path, name, cut):
    reader, write, _itemsize = BINARY_FILES[name]
    write(tmp_path / "f.bin")
    raw = (tmp_path / "f.bin").read_bytes()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as f:
            f.write(raw[:len(raw) - cut])

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    if cut:
        with pytest.raises(FormatError, match="fifo: payload is"):
            reader(fifo)
    else:
        assert np.array_equal(payload_of(reader(fifo)), payload_of(reader(tmp_path / "f.bin")))
    writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.parametrize("bad", ["x", 3.0, ["a", 1, 1], ["3.24", "6.7", "67"], [True, 1, 1]])
def test_non_numeric_spacing_rejected(tmp_path, bad):
    path = tmp_path / "bad.bin"
    header = {"n_b": 2, "n_a": 2, "n_r": 3, "spacing_um": bad, "dtype": "f32le"}
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 48)
    with pytest.raises(FormatError, match="spacing_um"):
        io.read_volume(path)


def savetxt_reference(header, rows, fmt):
    """The bytes the CSV writers produced with np.savetxt."""
    buf = StringIO()
    np.savetxt(buf, np.array(rows, dtype=np.float64), fmt=fmt, delimiter=",", comments="")
    return (header + "\n" + buf.getvalue()).encode()


# finite extremes the writers accept, and values the validators reject
FINITE_EXTREMES = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0 / 3.0, 2.0 ** 53 + 2.0]
NON_FINITE = [np.nan, np.inf, -np.inf]


class TestTableWriters:
    """One %-format over the whole table writes np.savetxt's bytes."""

    def test_surfaces_match_savetxt(self, tmp_path, rng):
        # 2400 rows: more than one block of the writer
        pos = np.concatenate([[1.0, 1.0 + 2.0 ** -52, 1e308, 5e300, 7.25, 2.0 ** 60],
                              rng.uniform(1.0, 500.0, 2394)]).reshape(2, 3, 400)
        path = tmp_path / "s.csv"
        io.write_surfaces(path, SurfaceSet(pos))
        rows = [(k + 1, b + 1, a + 1, pos[k, b, a])
                for k in range(2) for b in range(3) for a in range(400)]
        want = savetxt_reference("surface,b,a,r", rows, ["%d", "%d", "%d", "%.17g"])
        assert path.read_bytes() == want

    def test_displacements_match_savetxt(self, tmp_path, rng):
        axial = np.array(FINITE_EXTREMES + list(rng.normal(0.0, 10.0, 4)))
        transverse = rng.integers(-15, 16, axial.size)
        path = tmp_path / "d.csv"
        io.write_displacements(path, DisplacementField(axial=axial, transverse=transverse))
        rows = [(b + 1, axial[b], transverse[b]) for b in range(axial.size)]
        want = savetxt_reference("b,axial,transverse", rows, ["%d", "%.17g", "%d"])
        assert path.read_bytes() == want

    def test_non_finite_values_match_savetxt(self, tmp_path):
        values = FINITE_EXTREMES + NON_FINITE
        rows = [(i + 1, v, -i) for i, v in enumerate(values)]
        path = tmp_path / "t.csv"
        io._write_table(path, "i,v,j", "%d,%.17g,%d\n", np.array(rows, dtype=np.float64))
        assert path.read_bytes() == savetxt_reference("i,v,j", rows, ["%d", "%.17g", "%d"])

    def test_empty_table(self, tmp_path):
        path = tmp_path / "e.csv"
        io._write_table(path, "i,v", "%d,%.17g\n", np.zeros((0, 2)))
        assert path.read_bytes() == b"i,v\n"


class TestDistributionAndLabelFiles:
    def test_distribution_round_trip(self, tmp_path, rng):
        q = rng.uniform(0.1, 1.0, size=(2, 3, 4, 8))
        q /= q.sum(axis=-1, keepdims=True)
        path = tmp_path / "q.bin"
        io.write_distributions(path, q)
        back = io.read_distributions(path)
        assert np.array_equal(back, q)  # f64 payload: exact
        assert back.flags.writeable

    def test_distributions_written_without_a_payload_copy(self, tmp_path):
        # 73.5 MiB of float64, written from its own buffer; a tobytes() copy
        # would allocate all of it again
        q = np.zeros((4, 49, 256, 192))
        tracemalloc.start()
        try:
            io.write_distributions(tmp_path / "q.bin", q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        with open(tmp_path / "q.bin", "rb") as f:
            assert os.fstat(f.fileno()).st_size == len(f.readline()) + q.nbytes

    def test_negative_rejected(self, tmp_path):
        q = np.full((1, 1, 1, 2), 0.5)
        q[0, 0, 0] = [1.5, -0.5]
        path = tmp_path / "q.bin"
        io.write_distributions(path, q)
        with pytest.raises(ValidationError, match="q.bin: probabilities"):
            io.read_distributions(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, tmp_path, bad):
        q = np.full((2, 1, 3, 4), 0.25)
        q[1, 0, 2, 1] = bad
        path = tmp_path / "q.bin"
        io.write_distributions(path, q)
        with pytest.raises(ValidationError, match="q.bin: probabilities"):
            io.read_distributions(path)

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


class _FullDisk:
    """File proxy that passes the first write through and fails the next one."""

    def __init__(self, f):
        self._f = f
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError("No space left on device")
        return self._f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _writers():
    from oct_align import metrics

    vol = OctVolume(np.ones((2, 3, 4), dtype=np.float32))
    return {
        "volume": (io, lambda p: io.write_volume(p, vol)),
        "distributions": (io, lambda p: io.write_distributions(p, np.full((1, 2, 3, 4), 0.25))),
        "labels": (io, lambda p: io.write_labels(p, LabelMap(np.zeros((2, 3, 4), np.int16), 1))),
        "surfaces": (io, lambda p: io.write_surfaces(p, SurfaceSet(np.full((1, 2, 3), 2.5)))),
        "displacements": (io, lambda p: io.write_displacements(
            p, DisplacementField(np.zeros(3), np.zeros(3)))),
        "histogram": (io, lambda p: metrics.write_histogram_csv(
            p, np.array([3, 1]), np.array([0.0, 1.0, 2.0]))),
        "json": (io, lambda p: io.write_json(p, {"a": 1})),
    }


@pytest.mark.parametrize("name", sorted(_writers()))
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, name):
    module, write = _writers()[name]
    target = tmp_path / "out"
    write(target)
    good = target.read_bytes()
    target.unlink()
    monkeypatch.setattr(module, "open", lambda *a, **k: _FullDisk(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        write(target)
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    write(target)
    assert target.read_bytes() == good
    assert list(tmp_path.iterdir()) == [target]


def test_atomic_write_keeps_the_plain_open_mode(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    io.write_json(tmp_path / "atomic.json", {"a": 1})
    assert (tmp_path / "atomic.json").stat().st_mode == plain.stat().st_mode
