"""Static guard against dead library code: every public module-level
function and class of the package is read somewhere in the package other
than inside its own definition."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hamrep"

# library API with callers outside the package only: criterion 05
# reconstructs H one (t, x, p) at a time
CALLED_FROM_OUTSIDE = {"reconstruct_H"}


def _definitions_without_reference() -> list[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    defined = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    # (module, top-level definition or None) -> names and attributes it reads
    read: dict[tuple[str, str | None], set[str]] = {}
    for module, tree in trees.items():
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            names = read.setdefault((module, owner), set())
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return [
        f"{module}:{name}"
        for module, name in defined
        if not any(name in names for where, names in read.items() if where != (module, name))
    ]


def test_every_public_definition_is_read_in_the_package():
    # equality also keeps the allow-list from outliving its reason
    unread = _definitions_without_reference()
    assert sorted(name.split(":")[1] for name in unread) == sorted(CALLED_FROM_OUTSIDE), unread
