"""On-disk formats: binary files with a JSON header line, and CSV tables.

Binary container: one UTF-8 JSON header line with sorted keys, ending in
``\\n``, then the raw payload array in the header's ``"dtype"``,
row-major.  ``_write_binary`` and ``_read_binary`` write and read every
binary format, each without a payload-sized copy: the writer writes the
payload from its array's own buffer (it converts only an array that is
not C-contiguous or not in the file's dtype), and the reader checks the
header's keys and dtype, each field it needs by its JSON kind
(``json_kind_ok``; dimensions nonnegative), and the payload size the
dimensions imply against the file's size before it reads (or allocates)
the payload straight into its array.
Volume header: ``n_b, n_a, n_r, spacing_um: [dz, dx, dy]``, dtype
``f32le``, payload in (b, a, r) order.  Surface-distribution files
(``n_l`` and the grid, ``f64le``, values checked finite and nonnegative)
and label-map files (the grid and ``n_surfaces``, ``u8``) exist so the
loss CLI can read its inputs; their dtypes tell them apart.  A reader
ignores header keys it does not need, such as the ``kind`` key of files
written by earlier versions.

Grid table (CSV, ``_write_grid`` and ``_read_grid``): a header line naming
the index columns, then the value columns; one row per point of a complete
grid, its indices 1-based integers, each point once, in any row order.
Surfaces: ``surface,b,a,r``.  Displacements: ``b,axial,transverse``.
"""

from __future__ import annotations

import json
import math
import os
import stat
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import DisplacementField, LabelMap, OctVolume, SurfaceSet
from .errors import FormatError, ValidationError

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


def json_kind_ok(value, default) -> bool:
    """Whether the parsed JSON ``value`` has the kind of ``default``: an
    integer for an int, a finite number for a float, a list of finite
    numbers for a tuple.  A bool is never one, and nothing is converted."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(json_kind_ok(v, 0.0) for v in value)
    if isinstance(default, int):
        return type(value) is int  # bool is a subclass of int
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        return False


# header dtype -> the payload's numpy dtype
_DTYPES = {"f32le": "<f4", "f64le": "<f8", "u8": "u1"}
# a header field's JSON kind (see json_kind_ok) -> how an error names it
_FIELD_KINDS = {0: "a nonnegative integer", (): "a list of finite numbers"}


def _write_binary(path, header: dict, array, dtype: str) -> None:
    """``header`` with ``"dtype": dtype`` as one sorted JSON line, then
    ``array`` as that dtype in C order, written from the array's own
    buffer: a C-contiguous array already in that dtype is not copied."""
    payload = np.ascontiguousarray(array, _DTYPES[dtype])
    with atomic_path(path) as tmp, open(tmp, "wb") as f:
        f.write(json.dumps({**header, "dtype": dtype}, sort_keys=True).encode("utf-8") + b"\n")
        f.write(payload.data)


def _read_binary(path, dtype: str, dims, **extra):
    """``(header, payload)`` of the binary file ``path``: FormatError unless
    the header is a JSON object holding ``dims``, ``extra`` and ``dtype``,
    each of ``dims`` (a nonnegative integer) and ``extra`` (field -> kind)
    has its kind, and the payload fills an array of the ``dims`` exactly."""
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
        fields = {**dict.fromkeys(dims, 0), **extra}
        missing = [k for k in (*fields, "dtype") if k not in header]
        if missing:
            raise FormatError(f"{path}: header missing keys {missing}")
        if header["dtype"] != dtype:
            raise FormatError(f"{path}: unsupported dtype {header['dtype']!r}")
        for key, kind in fields.items():
            value = header[key]
            if not json_kind_ok(value, kind) or (kind == 0 and value < 0):
                raise FormatError(f"{path}: header field {key!r} must be "
                                  f"{_FIELD_KINDS[kind]}, got {json.dumps(value)}")
        return header, _read_payload(path, f, _DTYPES[dtype], tuple(header[k] for k in dims))


def _read_payload(path, f, np_dtype, shape) -> np.ndarray:
    """The rest of ``f``, read straight into a new array of ``shape``.

    The byte count the header implies is compared with what the file holds
    after the header before anything is allocated, so a header that claims
    more than the file holds is a FormatError, never a MemoryError.  A pipe
    has no size until it is read, so it is read first and then copied.
    """
    dtype = np.dtype(np_dtype)
    expected = math.prod(shape) * dtype.itemsize  # Python ints: no int64 wrap
    st = os.fstat(f.fileno())
    piped = None if stat.S_ISREG(st.st_mode) else f.read()
    size = st.st_size - f.tell() if piped is None else len(piped)
    if size != expected:
        raise FormatError(f"{path}: payload is {size} bytes, expected {expected}")
    if piped is not None:
        return np.frombuffer(piped, dtype).reshape(shape).copy()
    out = np.empty(shape, dtype)
    got = f.readinto(out)
    if got != expected:  # the file shrank after the size check
        raise FormatError(f"{path}: payload is {got} bytes, expected {expected}")
    return out


_GRID = ("n_b", "n_a", "n_r")


def write_volume(path, volume: OctVolume) -> None:
    header = dict(zip(_GRID, volume.data.shape), spacing_um=list(volume.spacing))
    _write_binary(path, header, volume.data, "f32le")


def read_volume(path) -> OctVolume:
    header, data = _read_binary(path, "f32le", _GRID, spacing_um=())
    return OctVolume(data=data, spacing=tuple(header["spacing_um"]))


def _write_table(path, header: str, row_format: str, table: np.ndarray) -> None:
    """The header line, then one ``row_format`` line per row of ``table``.

    One %-format per block of rows writes the bytes np.savetxt writes with
    the same per-column formats and a "," delimiter, without its per-row
    loop; blocks of 1024 rows keep the Python floats and the formatted
    text small.
    """
    with atomic_path(path) as tmp, open(tmp, "w", newline="") as f:
        f.write(header + "\n")
        for lo in range(0, table.shape[0], 1024):
            block = table[lo:lo + 1024]
            f.write((row_format * block.shape[0]) % tuple(block.ravel().tolist()))


def _write_grid(path, header: str, value_format: str, *arrays) -> None:
    """The grid table of ``arrays``, which share one shape: a row per grid
    point in C order, its 1-based indices (``%d``), then its value in each
    array (``value_format``)."""
    shape = np.shape(arrays[0])
    index = np.indices(shape).reshape(len(shape), -1) + 1
    table = np.column_stack([*index, *(np.ravel(a) for a in arrays)])
    _write_table(path, header, "%d," * len(shape) + value_format + "\n", table)


def _read_grid(path, header: str, n_index: int, what: str) -> list[np.ndarray]:
    """Each value column of the grid table ``path``, on its grid.

    FormatError unless the file starts with ``header`` and each row holds
    one number per column, its first ``n_index`` the 1-based indices that
    list each point of a complete grid once.  The indices are checked to be
    integers in [1, row count], the longest side a complete grid can have,
    before the int64 cast.  numpy's warning on a file without rows is
    silenced, so the FormatError stays the one line of output.
    """
    try:
        with open(path, "r", newline="") as f:
            got = f.readline().strip()
            if got != header:
                raise FormatError(f"{path}: expected header {header!r}, got {got!r}")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(f, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:  # a malformed row, or bytes that are not UTF-8
        raise FormatError(f"{path}: malformed {what} row: {exc}") from exc
    n_rows, n_cols = table.shape
    names = header.split(",")
    if n_rows == 0:
        raise FormatError(f"{path}: no {what} rows")
    if n_cols != len(names):
        raise FormatError(f"{path}: expected {len(names)} columns ({header}), got {n_cols}")
    idx = table[:, :n_index]
    if not np.all((idx >= 1) & (idx <= n_rows) & (idx == np.round(idx))):
        raise FormatError(f"{path}: {'/'.join(names[:n_index])} indices must be "
                          f"integers in 1..{n_rows}, the row count")
    ijk = tuple(idx.astype(np.int64).T - 1)
    shape = tuple(int(i.max()) + 1 for i in ijk)
    if n_rows != math.prod(shape):
        raise FormatError(f"{path}: expected a complete {'x'.join(map(str, shape))} grid "
                          f"({math.prod(shape)} rows), got {n_rows}")
    # one row per grid point: a point listed twice leaves another one missing
    if np.bincount(np.ravel_multi_index(ijk, shape)).max() > 1:
        raise FormatError(f"{path}: duplicate or missing ({', '.join(names[:n_index])}) entries")
    columns = [np.empty(shape) for _ in names[n_index:]]
    for c, column in enumerate(columns, n_index):
        column[ijk] = table[:, c]
    return columns


_SURFACE_HEADER = "surface,b,a,r"


def write_surfaces(path, surfaces: SurfaceSet) -> None:
    _write_grid(path, _SURFACE_HEADER, "%.17g", surfaces.positions)


def read_surfaces(path) -> SurfaceSet:
    (positions,) = _read_grid(path, _SURFACE_HEADER, 3, "surface")
    return SurfaceSet(positions)


_DISP_HEADER = "b,axial,transverse"


def write_displacements(path, disp: DisplacementField) -> None:
    _write_grid(path, _DISP_HEADER, "%.17g,%d", disp.axial, disp.transverse)


def read_displacements(path) -> DisplacementField:
    axial, transverse = _read_grid(path, _DISP_HEADER, 1, "displacement")
    return DisplacementField(axial=axial, transverse=transverse)


def write_distributions(path, probs: np.ndarray) -> None:
    """Store per-surface row distributions, shape (L, N_B, N_A, R), as f64le
    (the benchmark writes its loss inputs with it; the package only reads)."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 4:
        raise FormatError(f"distributions must be 4D (l, b, a, r), got {probs.shape}")
    _write_binary(path, dict(zip(("n_l", *_GRID), probs.shape)), probs, "f64le")


def read_distributions(path) -> np.ndarray:
    """Read a distribution file; ValidationError unless every value is finite
    and nonnegative (one min and one max: a nan fails both, no temporary
    array).  The losses check that each vector sums to 1 along their axis."""
    _, probs = _read_binary(path, "f64le", ("n_l", *_GRID))
    if probs.size and not (probs.min() >= 0.0 and probs.max() < np.inf):
        raise ValidationError(f"{path}: probabilities must be finite and nonnegative")
    return probs


def write_labels(path, label_map: LabelMap) -> None:
    """Store a label map as u8; the benchmark writes its loss inputs with it."""
    if label_map.n_surfaces > 255:
        raise FormatError("label files support at most 255 surfaces")
    header = dict(zip(_GRID, label_map.labels.shape), n_surfaces=label_map.n_surfaces)
    _write_binary(path, header, label_map.labels, "u8")


def read_labels(path) -> LabelMap:
    header, labels = _read_binary(path, "u8", _GRID, n_surfaces=0)
    return LabelMap(labels=labels.astype(np.int16), n_surfaces=header["n_surfaces"])


def write_json(path, obj) -> None:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    with atomic_path(path) as tmp, open(tmp, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")
