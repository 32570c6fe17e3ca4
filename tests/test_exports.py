"""Every name ``oct_align`` exports is used by the package's own code, or is
on a short list that gives the paper claim or caller keeping it."""

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
