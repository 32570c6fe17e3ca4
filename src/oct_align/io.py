"""On-disk formats: binary volumes with a JSON header line, and CSV tables.

Volume file: one UTF-8 JSON line ``{"n_b":..., "n_a":..., "n_r":...,
"spacing_um":[dz,dx,dy], "dtype":"f32le"}`` terminated by ``\\n``, followed
by the raw little-endian float32 payload in (b, a, r) row-major order.

Surface CSV: header ``surface,b,a,r`` with 1-based indices and fractional
row positions.  Displacement CSV: header ``b,axial,transverse``.

Surface-distribution and label-map binaries follow the volume layout with
their own header keys; they exist so the loss CLI can read its inputs.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import DisplacementField, LabelMap, OctVolume, SurfaceSet
from .errors import FormatError

_VOLUME_DTYPE = "f32le"


# the process umask, read once: mkstemp creates 0600 files, and a renamed
# temp file should get the mode a plain open() would have given the target
_UMASK = os.umask(0)
os.umask(_UMASK)


@contextmanager
def atomic_path(path):
    """Write to a temp file in the target directory, then rename into place.

    A write that fails leaves neither the target nor the temp file behind.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    os.close(fd)
    os.chmod(tmp, 0o666 & ~_UMASK)
    try:
        yield Path(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_header_payload(path, header: dict, payload: bytes) -> None:
    with atomic_path(path) as tmp, open(tmp, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(payload)


def _read_header_payload(path, required_keys) -> tuple[dict, bytes]:
    with open(path, "rb") as f:
        line = f.readline()
        if not line.endswith(b"\n"):
            raise FormatError(f"{path}: missing header line")
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: malformed JSON header: {exc}") from exc
        if not isinstance(header, dict):
            raise FormatError(f"{path}: header must be a JSON object")
        missing = [k for k in required_keys if k not in header]
        if missing:
            raise FormatError(f"{path}: header missing keys {missing}")
        payload = f.read()
    return header, payload


def _header_ints(path, header: dict, keys) -> tuple[int, ...]:
    """The header's dimension fields as nonnegative ints, or FormatError."""
    try:
        values = tuple(int(header[k]) for k in keys)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: header fields {list(keys)} must be integers: {exc}") from exc
    if min(values) < 0:
        raise FormatError(f"{path}: header fields {list(keys)} must be nonnegative, got {values}")
    return values


def _payload_array(path, payload, np_dtype, count):
    itemsize = np.dtype(np_dtype).itemsize
    if len(payload) != count * itemsize:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, expected {count * itemsize}"
        )
    return np.frombuffer(payload, dtype=np_dtype, count=count)


def write_volume(path, volume: OctVolume) -> None:
    header = {
        "n_b": volume.n_b,
        "n_a": volume.n_a,
        "n_r": volume.n_r,
        "spacing_um": list(volume.spacing),
        "dtype": _VOLUME_DTYPE,
    }
    _write_header_payload(path, header, volume.data.astype("<f4").tobytes(order="C"))


def read_volume(path) -> OctVolume:
    header, payload = _read_header_payload(
        path, ("n_b", "n_a", "n_r", "spacing_um", "dtype")
    )
    if header["dtype"] != _VOLUME_DTYPE:
        raise FormatError(f"{path}: unsupported dtype {header['dtype']!r}")
    n_b, n_a, n_r = _header_ints(path, header, ("n_b", "n_a", "n_r"))
    try:
        spacing = tuple(float(x) for x in header["spacing_um"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: spacing_um must be a list of numbers: {exc}") from exc
    flat = _payload_array(path, payload, "<f4", n_b * n_a * n_r)
    return OctVolume(data=flat.reshape(n_b, n_a, n_r), spacing=spacing)


def _read_table(path, header: str, what: str) -> np.ndarray:
    """The comma-separated numeric rows below ``header``, as a 2-D array.

    A file without rows gives an empty table, which the callers reject:
    numpy's warning about it is silenced, so the failure stays the one
    FormatError line.
    """
    try:
        with open(path, "r", newline="") as f:
            got = f.readline().strip()
            if got != header:
                raise FormatError(f"{path}: expected header {header!r}, got {got!r}")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                return np.loadtxt(f, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:  # a malformed row, or bytes that are not UTF-8
        raise FormatError(f"{path}: malformed {what} row: {exc}") from exc


_SURFACE_HEADER = "surface,b,a,r"


def write_surfaces(path, surfaces: SurfaceSet) -> None:
    pos = surfaces.positions
    n_s, n_b, n_a = pos.shape
    ls, bs, aa = np.meshgrid(
        np.arange(1, n_s + 1), np.arange(1, n_b + 1), np.arange(1, n_a + 1),
        indexing="ij",
    )
    table = np.column_stack([ls.ravel(), bs.ravel(), aa.ravel(), pos.ravel()])
    with atomic_path(path) as tmp, open(tmp, "w", newline="") as f:
        f.write(_SURFACE_HEADER + "\n")
        np.savetxt(f, table, fmt=["%d", "%d", "%d", "%.17g"], delimiter=",", comments="")


def read_surfaces(path) -> SurfaceSet:
    table = _read_table(path, _SURFACE_HEADER, "surface")
    if table.size == 0:
        raise FormatError(f"{path}: no surface rows")
    if table.shape[1] != 4:
        raise FormatError(f"{path}: expected 4 columns, got {table.shape[1]}")
    idx = table[:, :3]
    if np.any(idx != np.round(idx)) or idx.min() < 1:
        raise FormatError(f"{path}: surface/b/a indices must be 1-based integers")
    ls, bs, aa = (idx[:, i].astype(np.int64) - 1 for i in range(3))
    n_s, n_b, n_a = ls.max() + 1, bs.max() + 1, aa.max() + 1
    if table.shape[0] != n_s * n_b * n_a:
        raise FormatError(
            f"{path}: expected a complete {n_s}x{n_b}x{n_a} grid "
            f"({n_s * n_b * n_a} rows), got {table.shape[0]}"
        )
    pos = np.full((n_s, n_b, n_a), np.nan)
    pos[ls, bs, aa] = table[:, 3]
    if np.isnan(pos).any():
        raise FormatError(f"{path}: duplicate or missing (surface, b, a) entries")
    return SurfaceSet(pos)


_DISP_HEADER = "b,axial,transverse"


def write_displacements(path, disp: DisplacementField) -> None:
    table = np.column_stack([
        np.arange(1, disp.n_b + 1, dtype=np.float64),
        disp.axial,
        disp.transverse.astype(np.float64),
    ])
    with atomic_path(path) as tmp, open(tmp, "w", newline="") as f:
        f.write(_DISP_HEADER + "\n")
        np.savetxt(f, table, fmt=["%d", "%.17g", "%d"], delimiter=",", comments="")


def read_displacements(path) -> DisplacementField:
    table = _read_table(path, _DISP_HEADER, "displacement")
    if table.size == 0 or table.shape[1] != 3:
        raise FormatError(f"{path}: expected rows of b,axial,transverse")
    bs = table[:, 0]
    order = np.argsort(bs)
    bs = bs[order]
    if np.any(bs != np.arange(1, len(bs) + 1)):
        raise FormatError(f"{path}: b column must cover 1..N_B exactly once")
    return DisplacementField(axial=table[order, 1], transverse=table[order, 2])


def write_distributions(path, probs: np.ndarray) -> None:
    """Store per-surface row distributions, shape (L, N_B, N_A, R), as f64le."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 4:
        raise FormatError(f"distributions must be 4D (l, b, a, r), got {probs.shape}")
    n_l, n_b, n_a, n_r = probs.shape
    header = {
        "kind": "surface_distribution",
        "n_l": n_l, "n_b": n_b, "n_a": n_a, "n_r": n_r,
        "dtype": "f64le",
    }
    _write_header_payload(path, header, probs.astype("<f8").tobytes(order="C"))


def read_distributions(path) -> np.ndarray:
    header, payload = _read_header_payload(path, ("n_l", "n_b", "n_a", "n_r", "dtype"))
    if header["dtype"] != "f64le":
        raise FormatError(f"{path}: unsupported dtype {header['dtype']!r}")
    dims = _header_ints(path, header, ("n_l", "n_b", "n_a", "n_r"))
    flat = _payload_array(path, payload, "<f8", int(np.prod(dims)))
    return flat.reshape(dims).copy()


def write_labels(path, label_map: LabelMap) -> None:
    header = {
        "kind": "label_map",
        "n_b": label_map.labels.shape[0],
        "n_a": label_map.labels.shape[1],
        "n_r": label_map.labels.shape[2],
        "n_surfaces": label_map.n_surfaces,
        "dtype": "u8",
    }
    if label_map.n_surfaces > 255:
        raise FormatError("label files support at most 255 surfaces")
    _write_header_payload(path, header, label_map.labels.astype(np.uint8).tobytes(order="C"))


def read_labels(path) -> LabelMap:
    header, payload = _read_header_payload(
        path, ("n_b", "n_a", "n_r", "n_surfaces", "dtype")
    )
    if header["dtype"] != "u8":
        raise FormatError(f"{path}: unsupported dtype {header['dtype']!r}")
    n_b, n_a, n_r, n_surfaces = _header_ints(
        path, header, ("n_b", "n_a", "n_r", "n_surfaces")
    )
    flat = _payload_array(path, payload, np.uint8, n_b * n_a * n_r)
    return LabelMap(labels=flat.reshape(n_b, n_a, n_r).astype(np.int16), n_surfaces=n_surfaces)


def write_json(path, obj) -> None:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    with atomic_path(path) as tmp, open(tmp, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")
