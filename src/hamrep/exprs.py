"""Piecewise arithmetic expressions for externally defined Hamiltonians.

Config files describe a Hamiltonian as strings in a small grammar: the
operators + - * / ** (also written x^2), the functions abs, sqrt, max, min,
ln, and the variables t, x, p. Piecewise definitions list guarded pieces;
the first guard that holds wins and the last piece must be unguarded.
Strings compile to vectorized numpy closures via the ast module with a node
whitelist, so no general code evaluation happens.
"""

from __future__ import annotations

import ast
import math
from typing import Callable

import numpy as np

from .errors import ConfigError

_UNICODE_OPS = {"×": "*", "÷": "/", "−": "-", "^": "**"}

_FUNCTIONS = {
    "abs": (np.abs, 1, 1),
    "sqrt": (np.sqrt, 1, 1),
    "ln": (np.log, 1, 1),
    "max": (np.maximum, 2, None),
    "min": (np.minimum, 2, None),
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}

_COMPARES = {
    ast.Lt: np.less,
    ast.LtE: np.less_equal,
    ast.Gt: np.greater,
    ast.GtE: np.greater_equal,
    ast.Eq: np.equal,
    ast.NotEq: np.not_equal,
}


def _normalize(src: str) -> str:
    out = src
    for raw, repl in _UNICODE_OPS.items():
        out = out.replace(raw, repl)
    return out


def _fold(fn, parts):
    acc = parts[0]
    for nxt in parts[1:]:
        acc = fn(acc, nxt)
    return acc


def _build(node: ast.AST, variables: tuple[str, ...], src: str) -> Callable:
    """Recursively compile a whitelisted AST node to env -> value."""
    if isinstance(node, ast.Expression):
        return _build(node.body, variables, src)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
            raise ConfigError(f"non-numeric constant {node.value!r} in {src!r}")
        val = float(node.value)
        return lambda env: val
    if isinstance(node, ast.Name):
        if node.id not in variables:
            raise ConfigError(
                f"unknown variable {node.id!r} in {src!r}; allowed: {', '.join(variables)}"
            )
        key = node.id
        return lambda env: env[key]
    if isinstance(node, ast.UnaryOp):
        inner = _build(node.operand, variables, src)
        if isinstance(node.op, ast.USub):
            return lambda env: np.negative(inner(env))
        if isinstance(node.op, ast.UAdd):
            return inner
        if isinstance(node.op, ast.Not):
            return lambda env: np.logical_not(inner(env))
        raise ConfigError(f"operator {type(node.op).__name__} not allowed in {src!r}")
    if isinstance(node, ast.BinOp):
        fn = _BINOPS.get(type(node.op))
        if fn is None:
            raise ConfigError(f"operator {type(node.op).__name__} not allowed in {src!r}")
        left = _build(node.left, variables, src)
        right = _build(node.right, variables, src)
        return lambda env: fn(left(env), right(env))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise ConfigError(f"only plain calls to named functions allowed in {src!r}")
        entry = _FUNCTIONS.get(node.func.id)
        if entry is None:
            raise ConfigError(
                f"unknown function {node.func.id!r} in {src!r}; "
                f"allowed: {', '.join(sorted(_FUNCTIONS))}"
            )
        fn, lo, hi = entry
        if len(node.args) < lo or (hi is not None and len(node.args) > hi):
            raise ConfigError(f"{node.func.id} takes {lo}{'+' if hi is None else ''} argument(s)")
        args = [_build(a, variables, src) for a in node.args]
        if hi == 1:
            arg = args[0]
            return lambda env: fn(arg(env))
        return lambda env: _fold(fn, [a(env) for a in args])
    if isinstance(node, ast.Compare):
        parts = [_build(node.left, variables, src)]
        ops = []
        for op, cmp in zip(node.ops, node.comparators):
            fn = _COMPARES.get(type(op))
            if fn is None:
                raise ConfigError(f"comparison {type(op).__name__} not allowed in {src!r}")
            ops.append(fn)
            parts.append(_build(cmp, variables, src))

        def run(env, parts=parts, ops=ops):
            vals = [p(env) for p in parts]
            acc = ops[0](vals[0], vals[1])
            for i, fn in enumerate(ops[1:], start=1):
                acc = np.logical_and(acc, fn(vals[i], vals[i + 1]))
            return acc

        return run
    if isinstance(node, ast.BoolOp):
        fn = np.logical_and if isinstance(node.op, ast.And) else np.logical_or
        parts = [_build(v, variables, src) for v in node.values]
        return lambda env: _fold(fn, [p(env) for p in parts])
    raise ConfigError(f"syntax element {type(node).__name__} not allowed in {src!r}")


def _too_deep(src: str) -> str:
    return f"expression nests too deeply ({len(src)} characters, starting {src[:20]!r})"


def compile_expr(src: str, variables: tuple[str, ...] = ("t", "x", "p")) -> Callable:
    """Compile one expression string to a vectorized callable.

    Parameters
    ----------
    src : str
        Expression over `variables` in the toolkit grammar.
    variables : tuple of str
        Names the expression may reference, in call order.

    Returns
    -------
    callable
        Positional evaluator fn(*values) broadcasting over numpy arrays;
        the result has the broadcast shape of all the values, also when
        the expression leaves some of them (or all: a constant) unused.
    """
    if not isinstance(src, str) or not src.strip():
        raise ConfigError("expression must be a nonempty string")
    try:
        tree = ast.parse(_normalize(src), mode="eval")
        body = _build(tree, tuple(variables), src)
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {src!r}: {exc.msg}") from exc
    except RecursionError:
        raise ConfigError(_too_deep(src)) from None

    def fn(*values):
        if len(values) != len(variables):
            raise ConfigError(f"expression over {variables} called with {len(values)} value(s)")
        env = dict(zip(variables, values))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            try:
                out = body(env)
            except RecursionError:  # compiled near the limit, called deeper in the stack
                raise ConfigError(_too_deep(src)) from None
        shape = np.broadcast_shapes(*(np.shape(v) for v in values))
        if np.shape(out) != shape:
            out = np.broadcast_to(out, shape).copy()
        return out

    return fn


def compile_piecewise(defn, variables: tuple[str, ...] = ("t", "x", "p")) -> Callable:
    """Compile a string or {"pieces": [{"when", "value"}, ...]} definition.

    Pieces apply in order, first matching guard wins; the final piece must
    omit "when" so every input is covered.
    """
    if isinstance(defn, str):
        return compile_expr(defn, variables)
    if not isinstance(defn, dict) or "pieces" not in defn:
        raise ConfigError('piecewise definition must be a string or {"pieces": [...]}')
    pieces = defn["pieces"]
    if not isinstance(pieces, list) or not pieces:
        raise ConfigError('"pieces" must be a nonempty list')
    compiled = []
    for i, piece in enumerate(pieces):
        if not isinstance(piece, dict) or "value" not in piece:
            raise ConfigError(f'piece {i} must be an object with a "value"')
        guard = piece.get("when")
        last = i == len(pieces) - 1
        if last and guard is not None:
            raise ConfigError("final piece must be unguarded (omit \"when\")")
        if not last and guard is None:
            raise ConfigError(f'piece {i} needs a "when" guard (only the final piece may omit it)')
        compiled.append(
            (
                compile_expr(guard, variables) if guard is not None else None,
                compile_expr(piece["value"], variables),
            )
        )

    def fn(*values):
        # every guard and value comes at the broadcast shape of the inputs
        out = np.array(compiled[-1][1](*values), dtype=float)
        taken = np.zeros(out.shape, dtype=bool)
        for guard, value in compiled[:-1]:
            mask = np.asarray(guard(*values), dtype=bool) & ~taken
            out[mask] = np.asarray(value(*values), dtype=float)[mask]
            taken |= mask
        return out

    return fn


def _checked(fn: Callable, key: str, names: tuple[str, ...], nonnegative: bool) -> Callable:
    """fn as a float-valued function that raises ConfigError, naming the
    definition key and its arguments, on a NaN or infinite value (and, with
    nonnegative, on a negative one)."""

    def wrapped(*args):
        value = float(fn(*args))
        if not math.isfinite(value) or (nonnegative and value < 0.0):
            at = ", ".join(f"{n}={float(a)!r}" for n, a in zip(names, args))
            need = "finite and >= 0" if nonnegative else "finite"
            raise ConfigError(f'"{key}" is {value!r} at {at}; it must be {need}')
        return value

    return wrapped


def compile_hamiltonian(defn: dict):
    """Build a HamiltonianSpec from a JSON definition object.

    Required keys: "name" and "H" (expression over t, x, p). Optional:
    "k_R" over (R, t) and "w_R" over (R, t, r) (both default "0"),
    "c" over (t), "lambda" over (t, x), "notes". The spec meets H4 iff
    "c" is given and BLC iff "lambda" is.
    """
    from .zoo import HamiltonianSpec, LambdaBound, ModulusData

    if not isinstance(defn, dict):
        raise ConfigError("hamiltonian definition must be a JSON object")
    unknown = set(defn) - {"name", "H", "k_R", "w_R", "c", "lambda", "notes"}
    if unknown:
        raise ConfigError(f"unknown hamiltonian definition key(s): {', '.join(sorted(unknown))}")
    name = defn.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError('hamiltonian definition needs a "name"')
    if "H" not in defn:
        raise ConfigError(f'hamiltonian {name!r} needs an "H" expression')
    h_fn = compile_piecewise(defn["H"], ("t", "x", "p"))
    k_fn = compile_expr(str(defn.get("k_R", "0")), ("R", "t"))
    w_fn = compile_expr(str(defn.get("w_R", "0")), ("R", "t", "r"))
    c_src = defn.get("c")
    c_fn = compile_expr(str(c_src), ("t",)) if c_src is not None else None

    def ev(t, x, p):
        return np.asarray(h_fn(float(t), float(x), np.asarray(p, dtype=float)), dtype=float)

    modulus = ModulusData(
        k_R=_checked(k_fn, "k_R", ("R", "t"), nonnegative=True),
        w_R=_checked(w_fn, "w_R", ("R", "t", "r"), nonnegative=True),
        c=_checked(c_fn, "c", ("t",), nonnegative=True) if c_fn is not None else None,
    )
    lam = None
    if defn.get("lambda") is not None:
        lam_fn = compile_expr(str(defn["lambda"]), ("t", "x"))
        lam_eval = _checked(lam_fn, "lambda", ("t", "x"), nonnegative=False)
        lam = LambdaBound(eval=lam_eval, note="config-supplied bound")
    return HamiltonianSpec(
        name=name,
        eval=ev,
        modulus=modulus,
        lambda_bound=lam,
        notes=str(defn.get("notes", "config-defined Hamiltonian")),
    )
