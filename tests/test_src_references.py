"""Static guard against dead library code: every public module-level
function and class of the package, and every public method and property of
its classes, is read somewhere in the package other than inside its own
definition; and every defaulted parameter of a public function or method
is set by some call in the package, and so is every defaulted public field
of its dataclasses, but for an allow-list of knobs that only the tests set.
Every tolerance default is read off the one table `report.TOLERANCES`. No
function takes a piece of the grid policy apart from its `GridPolicy`,
only `GridPolicy.p_grid` builds the p-window, and only `builder.build`
builds the slice machinery `_SliceCore` of a constructed triple."""

import ast
import collections
import pathlib

from hamrep import cli, report

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hamrep"
TESTS = pathlib.Path(__file__).resolve().parent

# library API with callers outside the package only
CALLED_FROM_OUTSIDE: set[str] = set()

# methods with callers outside the package only
METHODS_CALLED_FROM_OUTSIDE: set[str] = set()


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


def _calls_by_name(directories) -> dict[str, list[ast.Call]]:
    """Every call in the modules of the directories, by the name it calls:
    a bare name, or the last attribute of a dotted one."""
    found: dict[str, list[ast.Call]] = collections.defaultdict(list)
    for path in (path for directory in directories for path in sorted(directory.glob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                found[func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")].append(node)
    return found


def _sets(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether call passes the parameter `name`, whose position among the
    explicit arguments is index (None for a keyword-only one); an unpacked
    *args or **kwargs may pass anything."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def _public_functions():
    """(module, class name or None, definition) of every public function
    and method of the package."""
    for module, tree in _trees().items():
        for top in tree.body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            for fn in top.body if owner else [top]:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield module, owner, fn


def _never_set_options(calls) -> list[str]:
    unset = []
    for module, owner, fn in _public_functions():
        args = fn.args
        positional = args.posonlyargs + args.args
        if owner is not None and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        defaulted = [(i, p.arg) for i, p in enumerate(positional) if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for index, name in defaulted:
            if not any(_sets(call, index, name) for call in calls[fn.name]):
                unset.append(f"{module}:{owner + '.' if owner else ''}{fn.name}({name})")
    return unset


def _never_set_fields(calls) -> list[str]:
    """Defaulted public fields of the package's dataclasses that no
    constructor call sets, by position or keyword, and no keyword of a
    `dataclasses.replace` names (a ClassVar is a constant, not a field)."""
    unset = []
    for module, tree in _trees().items():
        for cls in tree.body:
            decorators = cls.decorator_list if isinstance(cls, ast.ClassDef) else []
            if not any("dataclass" in ast.unparse(d) for d in decorators):
                continue
            fields = [
                node
                for node in cls.body
                if isinstance(node, ast.AnnAssign) and "ClassVar" not in ast.unparse(node.annotation)
            ]
            for index, node in enumerate(fields):
                name = node.target.id
                if node.value is None or name.startswith("_"):
                    continue
                made = any(_sets(call, index, name) for call in calls[cls.name])
                if not (made or any(kw.arg == name for call in calls["replace"] for kw in call.keywords)):
                    unset.append(f"{module}:{cls.name}.{name}")
    return unset


# defaulted knobs that no package call sets, with what the tests set them for
SET_ONLY_BY_TESTS = {
    "builder.py:verify_triple(n_pairs)": "2-24 Lipschitz pairs keep a triple's audit fast, and 0 must fail",
    "cli.py:main(argv)": "the console entry point reads sys.argv; the tests pass theirs",
    "convex_geom.py:geometry_suite(n_pairs)": "40 pairs keep the suite's unit tests fast, and 0 must fail",
    "stability.py:representation_convergence(n_slabs)": "1-2 slabs keep a family fast, and 0 must be refused",
    "zoo.py:hat_rep_ex_2_1(n_side)": "a 9-node side keeps the convexified hat small",
    "zoo.py:family_p_abs(h)": "the named triple is the h = k = 0 member; a test builds a curved one",
    "zoo.py:family_p_abs(k)": "the named triple is the h = k = 0 member; a test builds a curved one",
    "sampling.py:SamplePlan.n_triples": "small plans keep the continuity checks fast, and empty ones must fail",
    "sampling.py:SamplePlan.n_p": "an empty p set must fail check_HLC",
    "sampling.py:SamplePlan.n_v": "a 9-point plan shows the unit fractions inside (0, 1) and rising",
}


def test_every_option_is_set_by_some_call():
    # a defaulted parameter no call sets is a constant in disguise; equality
    # keeps the allow-list from outliving its reason
    package = _calls_by_name([SRC])
    assert sorted(_never_set_options(package) + _never_set_fields(package)) == sorted(SET_ONLY_BY_TESTS)
    both = _calls_by_name([SRC, TESTS])
    assert _never_set_options(both) + _never_set_fields(both) == []


def _is_minus_inf(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Attribute)
        and node.operand.attr == "inf"
    )


def _minus_inf_starts() -> list[str]:
    """Assignments that start a variable at -inf (also inside a tuple),
    outside the one worst-margin accumulator `report.Worst`."""
    found = []
    for module, tree in _trees().items():
        owners = [top for top in tree.body if not (isinstance(top, ast.ClassDef) and top.name == "Worst")]
        for node in (sub for top in owners for sub in ast.walk(top)):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
                if any(_is_minus_inf(v) for v in values):
                    found.append(f"{module}:{node.lineno}")
    return found


def test_only_worst_starts_a_margin_at_minus_inf():
    # a hand-written worst-margin loop lets a NaN through (nan > worst is False)
    assert _minus_inf_starts() == []


def _tolerance_defaults() -> tuple[list[str], list[str]]:
    """Defaulted parameters of public functions and methods named tol,
    *_tol, *_slack, ratio, threshold or margin: those whose default is not
    a `TOLERANCES[...]` subscript, and those whose default is."""
    off, on = [], []
    for module, owner, fn in _public_functions():
        args = fn.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
        pairs += [(p, d) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for param, default in pairs:
            name = param.arg
            if name in ("tol", "ratio", "threshold", "margin") or name.endswith(("_tol", "_slack")):
                table = isinstance(default, ast.Subscript) and ast.unparse(default.value) == "TOLERANCES"
                (on if table else off).append(f"{module}:{owner + '.' if owner else ''}{fn.name}({name})")
    return off, on


def test_every_tolerance_default_reads_the_table():
    # a second copy of a default lets a contract change land in one place only
    off, on = _tolerance_defaults()
    assert off == []
    assert len(on) >= 15, on


def test_cli_tolerance_names_are_the_table_keys():
    read = [name for names in cli._TOLERANCES.values() for name in names]
    assert set(read) == set(report.TOLERANCES)


# grid parameters the one `GridPolicy` parameter, named grids, replaced
SPLIT_GRID_PARAMETERS = {"p_grid", "v_count", "policy"}


def _split_grid_parameters() -> list[str]:
    """Parameters of the package's functions and methods, private ones
    included, that carry a piece of the grid policy (a dataclass field such
    as `GridPolicy.v_count` is not a parameter)."""
    found = []
    for module, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                args = fn.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                found += [f"{module}:{getattr(fn, 'name', 'lambda')}({n})" for n in names if n in SPLIT_GRID_PARAMETERS]
    return found


def test_the_grid_policy_is_the_only_grid_parameter():
    # choosing the p-grid and the v-count is one decision, made once per
    # command in its config; a loose p_grid or count lets callers split it
    assert _split_grid_parameters() == []


def _call_sites(callee: str, args_start: str = "") -> list[str]:
    """Where the package calls `callee` (bare or dotted) with arguments that
    start with args_start, by the classes and functions that hold each call,
    outermost first."""
    sites = []
    for module, tree in _trees().items():
        defs = [n for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.FunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == callee:
                if ast.unparse(node).partition("(")[2].startswith(args_start):
                    owner = ".".join(d.name for d in defs if d.lineno <= node.lineno <= d.end_lineno)
                    sites.append(f"{module}:{owner}")
    return sites


def test_only_grid_policy_builds_the_p_window():
    assert _call_sites("UniformGrid", "-50.0, 50.0") == ["fenchel.py:GridPolicy.p_grid"]


def test_only_build_builds_a_slice_core():
    # both representations come from one construction; a second builder
    # of the slice machinery would split it again
    assert _call_sites("_SliceCore") == ["builder.py:build"]
