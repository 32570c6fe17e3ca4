"""Every name ``oct_align`` exports, and every field of its dataclasses, is
used by the package's own code, or is on a short list that gives the paper
claim or caller keeping it; and every name a module of the package imports,
it reads."""

import ast
from pathlib import Path

import oct_align

PACKAGE = Path(oct_align.__file__).parent

# exported names that no package code uses, each with the reason it stays
ALLOWED_UNUSED = {
    "alignment_loss_semi": "acceptance criteria 4 and 5 check the semi-supervised loss",
    "fix_surface_order": "the benchmark's eval_io workload fixes its predictions with it",
    "surfaces_to_labels": "the benchmark's eval_io workload writes its label file with it; "
                          "the losses are to derive their labels from it",
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


# dataclass fields that no package code reads, each with the caller keeping it
ALLOWED_UNREAD_FIELDS = {
    "AlignConfig.max_iters": "the benchmark's clinical workload passes max_iters=1",
}


def is_dataclass_def(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list)


def unread_fields(sources) -> set[str]:
    """``Class.field`` for each annotated field of a dataclass in ``sources``
    that no code outside that class's body reads as an attribute."""
    trees = [ast.parse(source) for source in sources]
    classes = [node for tree in trees for node in ast.walk(tree) if is_dataclass_def(node)]
    unread = set()
    for cls in classes:
        own = {id(node) for node in ast.walk(cls)}
        read = {node.attr for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in own}
        unread.update(f"{cls.name}.{stmt.target.id}" for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read)
    return unread


def package_unread_fields() -> set[str]:
    return unread_fields(path.read_text() for path in PACKAGE.glob("*.py"))


def test_unread_fields_are_found():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n    z: int\n\n"
              "    def f(self):\n        return self.y\n\n"
              "@dataclass\nclass B:\n    w: int\n\ndef g(a):\n    a.z = 1\n    return a.x\n")
    assert unread_fields([source]) == {"A.y", "A.z", "B.w"}


def test_every_dataclass_field_is_read_or_allowed():
    unexplained = package_unread_fields() - set(ALLOWED_UNREAD_FIELDS)
    assert not unexplained, (
        f"dataclass fields that no package code reads: {sorted(unexplained)}; delete "
        "them, or add each to ALLOWED_UNREAD_FIELDS with the caller that needs it"
    )


def test_field_allow_list_holds_only_unread_fields():
    stale = set(ALLOWED_UNREAD_FIELDS) - package_unread_fields()
    assert not stale, f"read by the package or no longer a field: {sorted(stale)}"


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
