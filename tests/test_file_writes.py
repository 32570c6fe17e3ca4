"""Every output file is written by ``io``: no other module of ``oct_align``
opens a file to write or append, so every write goes through
``io.atomic_path``'s temp file and rename and no output is left half-written."""

import ast
from pathlib import Path

import oct_align

PACKAGE = Path(oct_align.__file__).parent


def writing_calls(path: Path) -> list[int]:
    """Lines of ``path`` that open a file to write or append: ``open(...)``
    or ``<path>.open(...)`` with a mode holding w, a, x or +, or a mode that
    is not a string literal, and ``write_text`` / ``write_bytes`` calls."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            at = 1 if isinstance(func, ast.Name) else 0  # open(file, mode) / path.open(mode)
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[at] if len(node.args) > at else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                lines.append(node.lineno)
    return lines


def test_only_io_opens_files_for_writing():
    writers = {path.name: writing_calls(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert writers["io.py"], "io.py writes its formats, so the scan must find them"
    elsewhere = {name: lines for name, lines in writers.items() if lines and name != "io.py"}
    assert not elsewhere, f"files opened for writing outside io.py: {elsewhere}"
