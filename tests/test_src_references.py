"""Static guard against dead library code: every public module-level
function and class of the package, and every public method and property of
its classes, is read somewhere in the package other than inside its own
definition."""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hamrep"

# library API with callers outside the package only: criterion 05
# reconstructs H one (t, x, p) at a time
CALLED_FROM_OUTSIDE = {"reconstruct_H"}

# methods with callers outside the package only: criterion 02's halved-k
# mutation builds its modulus through `scaled`, from the tests
METHODS_CALLED_FROM_OUTSIDE = {"ModulusData.scaled"}


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _reads(node: ast.AST) -> set[str]:
    """Names and attributes read anywhere under node."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _attribute_reads(node: ast.AST) -> collections.Counter:
    """Attributes read anywhere under node, with multiplicity (a method is
    reached as an attribute; a local variable of the same name is not a
    read of it)."""
    return collections.Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _definitions_without_reference() -> list[str]:
    trees = _trees()
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
            read.setdefault((module, owner), set()).update(_reads(top))
    return [
        f"{module}:{name}"
        for module, name in defined
        if not any(name in names for where, names in read.items() if where != (module, name))
    ]


def _methods_without_reference() -> list[str]:
    trees = _trees()
    total: collections.Counter = collections.Counter()
    for tree in trees.values():
        total.update(_attribute_reads(tree))
    return [
        f"{cls.name}.{fn.name}"
        for tree in trees.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and total[fn.name] == _attribute_reads(fn)[fn.name]
    ]


def test_every_public_definition_is_read_in_the_package():
    # equality also keeps the allow-list from outliving its reason
    unread = _definitions_without_reference()
    assert sorted(name.split(":")[1] for name in unread) == sorted(CALLED_FROM_OUTSIDE), unread


def test_every_public_method_is_read_in_the_package():
    # a method or property read only inside its own body (recursion) counts as unread
    assert sorted(_methods_without_reference()) == sorted(METHODS_CALLED_FROM_OUTSIDE)
