"""A small expression language for problem coefficients.

Coefficients of a PDE problem (drift, diffusion, generator, terminal
condition) can be given as text expressions over the variables

    t            current time (scalar)
    x[i]         i-th state coordinate,        0 <= i < d
    y            candidate solution value (scalar)
    z[i]         i-th gradient coordinate,     0 <= i < d
    gamma[i][j]  Hessian entry,                0 <= i, j < d
    u[k]         k-th control coordinate,      0 <= k < control dim

with numeric literals, parentheses, the binary operators ``+ - * / ^``,
two-argument ``min(a, b)`` / ``max(a, b)``, the unary functions ``sin cos
exp log sqrt abs``, unary minus, and the aggregate ``trace(gamma)``.

Precedence is ``^``  >  unary minus  >  ``* /``  >  ``+ -``; all binary
operators associate to the left except ``^`` which associates to the
right.  The full grammar is documented in ``docs/expr-grammar.md`` and is
a compatibility contract: strings accepted today must keep parsing to the
same tree.

Evaluation is IEEE-754 double precision and deterministic.  Division by
zero yields an infinity, not an error, and NaN/infinity propagate through
every operator.  Values bound in an :class:`EvalContext` may be scalars
or numpy arrays; arrays evaluate elementwise with broadcasting, which is
what the simulation modules rely on to evaluate a coefficient across a
whole cross-section of paths in one call; :func:`coefficient` compiles
a problem coefficient's text into such a batched callable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError, ExprSyntaxError, IndexOutOfRange, MissingBinding

__all__ = [
    "Num",
    "Var",
    "Unary",
    "Binary",
    "ExprAst",
    "EvalContext",
    "parse",
    "evaluate",
    "coefficient",
    "pretty",
]


# --------------------------------------------------------------------------
# AST node types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    """A variable reference; ``index`` is empty for scalars (``t``, ``y``).

    The bare matrix ``gamma`` (empty index) only appears as the operand of
    ``trace``; everywhere else gamma requires two indices.
    """

    name: str
    index: tuple[int, ...] = ()


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg', 'sin', 'cos', 'exp', 'log', 'sqrt', 'abs', 'trace'
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # '+', '-', '*', '/', '^', 'min', 'max'
    left: "Node"
    right: "Node"


Node = Union[Num, Var, Unary, Binary]


@dataclass(frozen=True)
class ExprAst:
    """A parsed expression together with the dimensions it was checked against."""

    root: Node
    d: int
    k: int = 0


# Bounds that keep parsing and every walk of the tree (evaluation, the
# printer, and the nodes' equality, hash and repr, at up to three frames a
# level) well inside Python's recursion limit: operands nested in
# brackets, calls, unary minus or exponents (each level costs the parser up
# to six frames), and levels of the finished tree, which left-associative
# chains such as long sums deepen without nesting.
_MAX_NESTING = 100
_MAX_DEPTH = 200

_UNARY_FUNCS = ("sin", "cos", "exp", "log", "sqrt", "abs")
_BINARY_FUNCS = ("min", "max")
_SCALAR_VARS = ("t", "y")
_VECTOR_VARS = ("x", "z")


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()\[\],])
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


# --------------------------------------------------------------------------
# Parser (recursive descent, one token of lookahead)
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, source: str, d: int, k: int):
        self.tokens = _tokenize(source)
        self.i = 0
        self.d = d
        self.k = k
        self.nesting = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> tuple[str, str, int]:
        kind, got, pos = self.peek()
        if got != text or kind == "end":
            shown = got if kind != "end" else "end of input"
            raise ExprSyntaxError(f"expected {text!r}, found {shown}", pos)
        return self.advance()

    # expr := term (('+'|'-') term)*
    def parse_sum(self) -> Node:
        node = self.parse_term()
        while self.peek()[1] in ("+", "-") and self.peek()[0] == "op":
            op = self.advance()[1]
            node = Binary(op, node, self.parse_term())
        return node

    # term := unary (('*'|'/') unary)*
    def parse_term(self) -> Node:
        node = self.parse_unary()
        while self.peek()[1] in ("*", "/") and self.peek()[0] == "op":
            op = self.advance()[1]
            node = Binary(op, node, self.parse_unary())
        return node

    # unary := '-' unary | power
    def parse_unary(self) -> Node:
        kind, text, pos = self.peek()
        if self.nesting == _MAX_NESTING:
            raise ExprSyntaxError(f"operands nest more than {_MAX_NESTING} levels deep", pos)
        self.nesting += 1
        if kind == "op" and text == "-":
            self.advance()
            node = Unary("neg", self.parse_unary())
        else:
            node = self.parse_power()
        self.nesting -= 1
        return node

    # power := atom ('^' unary)?      (right associative, binds above unary minus)
    def parse_power(self) -> Node:
        node = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            node = Binary("^", node, self.parse_unary())
        return node

    def parse_atom(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            node = self.parse_sum()
            self.expect(")")
            return node
        if kind == "name":
            return self.parse_name(text, pos)
        shown = text if kind != "end" else "end of input"
        raise ExprSyntaxError(f"expected a value, found {shown!r}", pos)

    def parse_name(self, name: str, pos: int) -> Node:
        if name in _UNARY_FUNCS:
            self.expect("(")
            arg = self.parse_sum()
            self.expect(")")
            return Unary(name, arg)
        if name in _BINARY_FUNCS:
            self.expect("(")
            first = self.parse_sum()
            self.expect(",")
            second = self.parse_sum()
            self.expect(")")
            return Binary(name, first, second)
        if name == "trace":
            self.expect("(")
            _, text, p = self.advance()
            if text != "gamma":
                raise ExprSyntaxError("trace() takes the bare matrix 'gamma'", p)
            self.expect(")")
            return Unary("trace", Var("gamma"))
        if name in _SCALAR_VARS:
            return Var(name)
        if name in _VECTOR_VARS:
            i = self.parse_index(name, self.d)
            return Var(name, (i,))
        if name == "u":
            i = self.parse_index(name, self.k)
            return Var(name, (i,))
        if name == "gamma":
            i = self.parse_index(name, self.d)
            j = self.parse_index(name, self.d)
            return Var(name, (i, j))
        raise ExprSyntaxError(f"unknown name {name!r}", pos)

    def parse_index(self, variable: str, bound: int) -> int:
        self.expect("[")
        kind, text, pos = self.advance()
        if kind != "num" or not re.fullmatch(r"\d+", text):
            raise ExprSyntaxError(f"{variable!r} needs an integer index", pos)
        index = int(text)
        self.expect("]")
        if index >= bound:
            raise IndexOutOfRange(variable, index, pos)
        return index


def parse(source: str, d: int, k: int = 0) -> ExprAst:
    """Parse ``source`` into an :class:`ExprAst`, checking index bounds.

    ``d`` is the state dimension (bounds ``x``, ``z`` and both gamma
    indices) and ``k`` the control dimension (bounds ``u``).  Raises
    :class:`ExprSyntaxError` with the character position on bad syntax or
    past the nesting and depth bounds, :class:`IndexOutOfRange` on an
    index past the declared dimension.
    """
    if d < 1:
        raise ExprSyntaxError("state dimension must be at least 1", 0)
    p = _Parser(source, d, k)
    root = p.parse_sum()
    kind, text, pos = p.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {text!r}", pos)
    if _depth(root) > _MAX_DEPTH:
        raise ExprSyntaxError(f"the expression tree is more than {_MAX_DEPTH} levels deep", 0)
    return ExprAst(root, d, k)


def _depth(root: Node) -> int:
    """Levels of the tree under ``root``, counted without recursion."""
    deepest, todo = 0, [(root, 1)]
    while todo:
        node, level = todo.pop()
        deepest = max(deepest, level)
        if isinstance(node, Unary):
            todo.append((node.operand, level + 1))
        elif isinstance(node, Binary):
            todo += [(node.left, level + 1), (node.right, level + 1)]
    return deepest


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

@dataclass
class EvalContext:
    """Variable bindings for evaluation.

    ``x``, ``z`` are indexed on their last axis, ``gamma`` on its last
    two, so batched evaluation just passes arrays of shape ``(J, d)`` /
    ``(J, d, d)`` and receives a ``(J,)`` result.  Unbound variables are
    ``None``; referencing one raises :class:`MissingBinding`.
    """

    t: Optional[float] = None
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    gamma: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None


_UNARY_IMPL = {
    "neg": np.negative,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_BINARY_IMPL = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
    "min": np.minimum,
    "max": np.maximum,
}


def _lookup(var: Var, ctx: EvalContext):
    value = getattr(ctx, var.name, None)
    if value is None:
        raise MissingBinding(f"expression references {var.name!r} but the context does not bind it")
    if var.name in ("t", "y"):
        return value
    arr = np.asarray(value)
    if var.name == "gamma":
        i, j = var.index
        return arr[..., i, j]
    (i,) = var.index
    return arr[..., i]


def _eval_node(node: Node, ctx: EvalContext):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return _lookup(node, ctx)
    if isinstance(node, Unary):
        if node.op == "trace":
            gamma = ctx.gamma
            if gamma is None:
                raise MissingBinding("expression references 'gamma' but the context does not bind it")
            return np.trace(np.asarray(gamma), axis1=-2, axis2=-1)
        return _UNARY_IMPL[node.op](_eval_node(node.operand, ctx))
    return _BINARY_IMPL[node.op](_eval_node(node.left, ctx), _eval_node(node.right, ctx))


def evaluate(ast: ExprAst, ctx: EvalContext):
    """Evaluate ``ast`` under ``ctx``; scalars in, scalar out; arrays broadcast.

    Pure: the same (ast, ctx) pair always produces the bit-identical
    result.  IEEE special values propagate (1/0 -> inf, log(-1) -> nan).
    """
    for name, width in (("x", ast.d), ("z", ast.d)):
        bound = getattr(ctx, name)
        if bound is not None and np.asarray(bound).shape[-1] != width:
            raise MissingBinding(f"context binds {name!r} with width {np.asarray(bound).shape[-1]}, expected {width}")
    if ctx.gamma is not None:
        gshape = np.asarray(ctx.gamma).shape
        if len(gshape) < 2 or gshape[-1] != ast.d or gshape[-2] != ast.d:
            raise MissingBinding(f"context binds 'gamma' with shape {gshape}, expected trailing ({ast.d}, {ast.d})")
    if ctx.u is not None and ast.k and np.asarray(ctx.u).shape[-1] != ast.k:
        raise MissingBinding(f"context binds 'u' with width {np.asarray(ctx.u).shape[-1]}, expected {ast.k}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _eval_node(ast.root, ctx)


# --------------------------------------------------------------------------
# Problem coefficients
# --------------------------------------------------------------------------

def _names(node: Node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return _names(node.operand)
    if isinstance(node, Binary):
        return _names(node.left) | _names(node.right)
    return set()


def coefficient(source, d: int, args: tuple[str, ...], rank: int, what: str, k: int = 0) -> Callable:
    """Compile one problem coefficient's text into the batched callable ``fn(*args)``.

    ``source`` is one expression (``rank`` 0), a list of ``d`` (rank 1)
    or a ``d`` x ``d`` table (rank 2), and ``fn`` returns a fresh float64
    array of shape ``(J,)``, ``(J, d)`` or ``(J, d, d)``, J being the
    length of ``x``, with each entry's value assigned into its slot (a
    scalar or a (J,) row broadcasts).  An entry that is the literal ``0``
    is never evaluated: ``fn`` then starts from zeros and its slot keeps
    ``+0.0``, the value it would get.  Any other nesting or width, or a
    variable outside ``args``, raises ConfigError naming ``what``; a
    syntax error keeps its type and gains ``what`` and the offending
    entry as a prefix.
    """
    shape = ("one expression", f"a list of d = {d} expressions",
             f"a d x d = {d} x {d} table of expressions")[rank]
    slots = []  # (index, ast) per entry, in row-major order

    def leaves(src, index: tuple):
        if len(index) < rank:
            if not isinstance(src, (list, tuple)) or len(src) != d:
                raise ConfigError(f"{what} must be {shape}, got {src!r}")
            for i, s in enumerate(src):
                leaves(s, index + (i,))
            return
        if isinstance(src, bool) or not isinstance(src, (str, int, float)):
            raise ConfigError(f"{what} must be {shape}, got {src!r}")
        text = str(src)
        try:
            ast = parse(text, d, k)
        except ExprSyntaxError as exc:
            shown = text if len(text) <= 80 else text[:77] + "..."
            exc.args = (f"{what} {shown!r}: {exc.args[0]}",)
            raise
        stray = _names(ast.root) - set(args)
        if stray:
            raise ConfigError(f"{what} may reference {', '.join(args)} only, not "
                              f"{', '.join(sorted(stray))}: {src!r}")
        # The parser keeps a sign in a ``neg`` node, so ``-0.0`` is still evaluated.
        if ast.root != Num(0.0):
            slots.append(((slice(None),) + index, ast))

    leaves(source, ())
    alloc = np.empty if len(slots) == d**rank else np.zeros

    def fn(*values):
        ctx = EvalContext(**{a: v if a == "t" else np.asarray(v, dtype=np.float64)
                             for a, v in zip(args, values)})
        out = alloc((len(ctx.x),) + (d,) * rank)
        for index, ast in slots:
            # ``evaluate`` is looked up at call time, so a wrapper installed
            # on the module sees every call.
            out[index] = evaluate(ast, ctx)
        return out

    return fn


# --------------------------------------------------------------------------
# Pretty printer
# --------------------------------------------------------------------------

def _render(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        if node.index:
            return node.name + "".join(f"[{i}]" for i in node.index)
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"(-{_render(node.operand)})"
        if node.op == "trace":
            return "trace(gamma)"
        return f"{node.op}({_render(node.operand)})"
    if node.op in _BINARY_FUNCS:
        return f"{node.op}({_render(node.left)}, {_render(node.right)})"
    return f"({_render(node.left)} {node.op} {_render(node.right)})"


def pretty(ast: ExprAst) -> str:
    """Render the tree to text that re-parses to the identical tree.

    Output is fully parenthesised, so ``parse(pretty(parse(s)))`` equals
    ``parse(s)`` for every accepted source ``s`` whose tree is at most 50
    levels deep; a deeper tree can print more nested brackets than
    :func:`parse` accepts.
    """
    return _render(ast.root)
