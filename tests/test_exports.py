"""Every name ``oct_align`` exports is used by the package's own code, or is
on a short list that gives the paper claim or caller keeping it; and every
name a module of the package imports, it reads."""

import ast
from pathlib import Path

import oct_align

PACKAGE = Path(oct_align.__file__).parent

# exported names that no package code uses, each with the reason it stays
ALLOWED_UNUSED = {
    "alignment_loss_semi": "acceptance criteria 4 and 5 check the semi-supervised loss",
    "fix_surface_order": "the benchmark's eval_io workload fixes its predictions with it",
}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def unused_exports() -> set[str]:
    """Exported names that no module of the package, other than
    ``__init__.py``, reads as a name or an attribute."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return exported_names() - used


def test_every_export_is_used_or_allowed():
    unexplained = unused_exports() - set(ALLOWED_UNUSED)
    assert not unexplained, (
        f"exported but unused by the package: {sorted(unexplained)}; delete them, "
        "or add each to ALLOWED_UNUSED with the claim or caller that needs it"
    )


def test_allow_list_holds_only_unused_exports():
    stale = set(ALLOWED_UNUSED) - unused_exports()
    assert not stale, f"used by the package or no longer exported: {sorted(stale)}"


def unread_imports(source: str) -> set[str]:
    """Names that ``source`` binds by an import, other than ``__future__``
    features, and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .a import b, c\n\ndef f():\n    from .d import e\n    return np, c\n")
    assert unread_imports(source) == {"os", "b", "e"}


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports to re-export; the tests above check its names
    unread = {path.name: sorted(names) for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              and (names := unread_imports(path.read_text()))}
    assert not unread, f"imported but never read: {unread}"
