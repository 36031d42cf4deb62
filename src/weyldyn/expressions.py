"""Closed-form scalar expressions with exact analytic derivatives.

This is the small formula language used throughout the package for angle
laws, phase functions h(x, y, z, t) and gauge functions s(x, y, z, t):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

"^" is right associative and binds tighter than unary minus, so "-x^2"
reads as -(x^2) and "2^-2" is 0.25.  Known functions: sin, cos, tan,
exp, sqrt, abs.  Variables: x, y, z, t.  The name "pi" and any caller
supplied parameters are folded to numeric constants at parse time.  The
full grammar lives in docs/expression-grammar.md.

Derivatives are built symbolically over the same node set, so a parsed
expression, its derivative, and the printed round trip all evaluate
through one code path.  No general simplification is attempted beyond
constant folding during construction.
"""

from __future__ import annotations

import copy
import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Call",
    "BinOp",
    "ExpressionError",
    "ParseError",
    "MAX_DEPTH",
    "EvaluationError",
    "DifferentiationError",
    "parse_expr",
    "eval_expr",
    "diff_expr",
    "LinearLaw",
    "ExprLaw",
    "AngleLaw",
    "ScalarField",
    "plane_wave_phase",
    "elementwise_pow",
]

VARIABLES = ("x", "y", "z", "t")

Number = Union[float, np.ndarray]


class ExpressionError(ValueError):
    """Base class for expression failures."""


class ParseError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvaluationError(ExpressionError):
    pass


class DifferentiationError(ExpressionError):
    pass


_NDARRAY = np.ndarray


def _is_array(v) -> bool:
    return isinstance(v, np.ndarray)


class Expr:
    """Immutable expression tree node."""

    precedence: int = 100

    def evaluate(self, bindings: Mapping[str, Number]) -> Number:
        """Value of the expression under the variable bindings.

        Scalar values evaluate through math and raise EvaluationError on
        a domain error.  Array values evaluate through numpy with its
        floating-point warnings off: a domain error there gives nan or
        inf, left to the caller's finiteness checks.  "^" on arrays
        goes through math.pow value by value (`elementwise_pow`), so
        it rounds as the scalar "^" does.
        """
        for value in bindings.values():
            if value.__class__ is _NDARRAY:
                with np.errstate(all="ignore"):
                    return self._eval(bindings)
        return self._eval(bindings)

    def _eval(self, bindings: Mapping[str, Number]) -> Number:
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def free_variables(self) -> frozenset:
        raise NotImplementedError

    def __str__(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: float

    @property
    def precedence(self) -> int:  # type: ignore[override]
        # negative literals need parens when embedded, e.g. "a*(-2.0)"
        return 100 if self.value >= 0 else 5

    def _eval(self, bindings):
        return self.value

    def diff(self, var):
        return Const(0.0)

    def free_variables(self):
        return frozenset()

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def _eval(self, bindings):
        try:
            return bindings[self.name]
        except KeyError:
            raise EvaluationError(f"unbound variable '{self.name}'") from None

    def diff(self, var):
        return Const(1.0 if var == self.name else 0.0)

    def free_variables(self):
        return frozenset((self.name,))

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr
    precedence = 30

    def _eval(self, bindings):
        return -self.arg._eval(bindings)

    def diff(self, var):
        return _neg(self.arg.diff(var))

    def free_variables(self):
        return self.arg.free_variables()

    def __str__(self):
        inner = str(self.arg)
        if self.arg.precedence < self.precedence:
            inner = f"({inner})"
        return f"-{inner}"


# name -> (scalar implementation, array implementation)
_FUNCTIONS = {
    "sin": (math.sin, np.sin),
    "cos": (math.cos, np.cos),
    "tan": (math.tan, np.tan),
    "exp": (math.exp, np.exp),
    "sqrt": (math.sqrt, np.sqrt),
    "abs": (abs, np.abs),
}


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr

    def _eval(self, bindings):
        v = self.arg._eval(bindings)
        scalar_fn, array_fn = _FUNCTIONS[self.fn]
        if _is_array(v):
            return array_fn(v)
        try:
            return scalar_fn(v)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(f"domain error in '{self}': {exc}") from None

    def diff(self, var):
        u = self.arg
        du = u.diff(var)
        if self.fn == "sin":
            return _mul(Call("cos", u), du)
        if self.fn == "cos":
            return _neg(_mul(Call("sin", u), du))
        if self.fn == "tan":
            return _div(du, BinOp("^", Call("cos", u), Const(2.0)))
        if self.fn == "exp":
            return _mul(Call("exp", u), du)
        if self.fn == "sqrt":
            return _div(du, _mul(Const(2.0), Call("sqrt", u)))
        if self.fn == "abs":
            # u/|u| * u'; undefined at u = 0, reported on evaluation
            return _mul(du, _div(u, Call("abs", u)))
        raise DifferentiationError(f"no derivative rule for '{self.fn}'")

    def free_variables(self):
        return self.arg.free_variables()

    def __str__(self):
        return f"{self.fn}({self.arg})"


def _pow_or_numpy(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError):
        return float(np.power(a, b))


def elementwise_pow(a, b) -> np.ndarray:
    """a^b through math.pow value by value, so arrays round as scalars do.

    np.power differs from libm's pow in the last bit on some values (its
    square fast path, its SIMD pow).  Where math.pow raises, the value is
    numpy's: nan for a domain error, inf for an overflow or a zero base.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    xs, ys = a.ravel().tolist(), b.ravel().tolist()
    try:
        values = list(map(math.pow, xs, ys))
    except (ValueError, OverflowError):
        values = list(map(_pow_or_numpy, xs, ys))
    return np.array(values, dtype=float).reshape(a.shape)


_BINOP_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_ARRAY_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
              "^": elementwise_pow}
_SCALAR_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "^": math.pow}


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    @property
    def precedence(self) -> int:  # type: ignore[override]
        return _BINOP_PRECEDENCE[self.op]

    def _eval(self, bindings):
        a = self.left._eval(bindings)
        b = self.right._eval(bindings)
        op = self.op
        # an exact type test: the cheapest check on the scalar hot path
        if a.__class__ is _NDARRAY or b.__class__ is _NDARRAY:
            return _ARRAY_OPS[op](a, b)
        if op == "/" and b == 0:
            raise EvaluationError(f"division by zero in '{self}'")
        try:
            return _SCALAR_OPS[op](a, b)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(f"domain error in '{self}': {exc}") from None

    def diff(self, var):
        u, v = self.left, self.right
        du, dv = None, None
        op = self.op
        if op in ("+", "-", "*", "/"):
            du, dv = u.diff(var), v.diff(var)
        if op == "+":
            return _add(du, dv)
        if op == "-":
            return _sub(du, dv)
        if op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if op == "/":
            return _div(_sub(_mul(du, v), _mul(u, dv)), BinOp("^", v, Const(2.0)))
        if op == "^":
            if isinstance(v, Const):
                # d(u^c) = c*u^(c-1)*u'
                return _mul(_mul(v, BinOp("^", u, Const(v.value - 1.0))), u.diff(var))
            if isinstance(u, Const):
                if u.value <= 0:
                    raise DifferentiationError(
                        f"cannot differentiate '{self}': base must be positive"
                    )
                return _mul(_mul(Const(math.log(u.value)), self), v.diff(var))
            raise DifferentiationError(
                f"cannot differentiate '{self}': exponent must be constant"
            )
        raise AssertionError(op)

    def free_variables(self):
        return self.left.free_variables() | self.right.free_variables()

    def __str__(self):
        prec = self.precedence
        left, right = str(self.left), str(self.right)
        if self.op == "^":
            # right associative; parenthesize a pow base, keep chain on the right
            if self.left.precedence <= prec:
                left = f"({left})"
            if self.right.precedence < prec:
                right = f"({right})"
        else:
            if self.left.precedence < prec:
                left = f"({left})"
            if self.right.precedence <= prec:
                right = f"({right})"
        return f"{left}{self.op}{right}"


# construction-time folding; keeps derivative trees small, no CAS rewriting

def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0:
        return a
    if isinstance(a, Const) and a.value == 0:
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0:
            return Const(0.0)
        if a.value == 1:
            return b
    if isinstance(b, Const):
        if b.value == 0:
            return Const(0.0)
        if b.value == 1:
            return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and a.value == 0:
        return Const(0.0)
    if isinstance(b, Const) and b.value == 1:
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        return Const(a.value / b.value)
    return BinOp("/", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character '{stripped[0]}'", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


# levels of one expression; its second derivative is about 6x deeper, and
# Python's default recursion limit is 1000 frames
MAX_DEPTH = 64


class _Parser:
    """Recursive descent; each rule returns (node, depth), the tree and the
    number of nodes on its longest root-to-leaf path."""

    def __init__(self, tokens, text: str, parameters: Mapping[str, float]):
        self.tokens = tokens
        self.text = text
        self.parameters = parameters
        self.index = 0
        self.nesting = 0  # factor rules open: parentheses, calls, "-", "^"

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("end", "", len(self.text))

    def advance(self):
        tok = self.peek()
        self.index += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected '{symbol}'", pos)
        self.advance()

    def nest(self, depth: int, pos: int) -> int:
        if depth > MAX_DEPTH:
            raise ParseError("expression nested too deeply", pos)
        return depth

    def parse(self) -> Expr:
        expr, _ = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected '{value}'", pos)
        return expr

    def chain(self, ops, operand):
        """operand (op operand)*, left-associative."""
        node, depth = operand()
        while True:
            kind, value, pos = self.peek()
            if kind != "op" or value not in ops:
                return node, depth
            self.advance()
            right, right_depth = operand()
            node = BinOp(value, node, right)
            depth = self.nest(1 + max(depth, right_depth), pos)

    def expr(self):
        return self.chain(("+", "-"), self.term)

    def term(self):
        return self.chain(("*", "/"), self.factor)

    def factor(self):
        kind, value, pos = self.peek()
        self.nesting = self.nest(self.nesting + 1, pos)
        if kind == "op" and value == "-":
            self.advance()
            arg, depth = self.factor()
            result = Neg(arg), self.nest(depth + 1, pos)
        else:
            result = self.power()
        self.nesting -= 1
        return result

    def power(self):
        base, depth = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent, exponent_depth = self.factor()
            return (BinOp("^", base, exponent),
                    self.nest(1 + max(depth, exponent_depth), pos))
        return base, depth

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "number":
            return Const(float(value)), 1
        if kind == "name":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in _FUNCTIONS:
                    raise ParseError(f"unknown function '{value}'", pos)
                self.advance()
                arg, depth = self.expr()
                self.expect_op(")")
                return Call(value, arg), self.nest(depth + 1, pos)
            if value == "pi":
                return Const(math.pi), 1
            if value in VARIABLES:
                return Var(value), 1
            if value in self.parameters:
                bound = self.parameters[value]
                if isinstance(bound, Expr):
                    return bound, 1
                return Const(float(bound)), 1
            raise ParseError(f"unknown identifier '{value}'", pos)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected '{value}'", pos)


def parse_expr(text: str, parameters: Mapping[str, float] | None = None) -> Expr:
    """Parse an infix expression into a tree.

    `parameters` supplies named real constants beyond the builtin "pi";
    they are folded to their numeric values at parse time.  A parameter
    whose value is an Expr (say Var("a")) is inserted as that node
    instead, which keeps the name symbolic.  Raises
    ParseError with a byte offset on malformed input, and on an expression
    nested more than MAX_DEPTH levels deep, counted both as rules open
    while it is read and as nodes on a path of the finished tree.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    tokens = _tokenize(text)
    return _Parser(tokens, text, parameters or {}).parse()


def eval_expr(expr: Expr, **bindings: Number) -> Number:
    """Evaluate at a point.  Scalar results are checked to be finite."""
    value = expr.evaluate(bindings)
    if not _is_array(value):
        value = float(value)
        if not math.isfinite(value):
            raise EvaluationError(f"non-finite result from '{expr}'")
    return value


def diff_expr(expr: Expr, var: str) -> Expr:
    """Exact derivative with respect to one of the grammar variables."""
    if var not in VARIABLES:
        raise DifferentiationError(f"unknown variable '{var}'")
    return expr.diff(var)


@dataclass(frozen=True)
class LinearLaw:
    """offset + rate*t with exact derivatives."""

    offset: float
    rate: float

    def value(self, t):
        return self.offset + self.rate * t

    def derivative(self, t):
        return self.rate

    def second_derivative(self, t):
        return 0.0


class ExprLaw:
    """Time law given by an expression in t; derivatives are analytic."""

    def __init__(self, expr: Expr):
        extra = expr.free_variables() - {"t"}
        if extra:
            names = ", ".join(sorted(extra))
            raise ExpressionError(f"time law may only depend on t, found: {names}")
        self.expr = expr
        self._d1 = diff_expr(expr, "t")
        self._d2 = diff_expr(self._d1, "t")

    def value(self, t):
        return eval_expr(self.expr, t=t)

    def derivative(self, t):
        return eval_expr(self._d1, t=t)

    def second_derivative(self, t):
        return eval_expr(self._d2, t=t)

    def __repr__(self):
        return f"ExprLaw({str(self.expr)!r})"


TimeLaw = Union[LinearLaw, ExprLaw]


@dataclass(frozen=True)
class AngleLaw:
    """Polar and azimuthal angle histories theta(t), phi(t)."""

    theta: TimeLaw
    phi: TimeLaw

    @classmethod
    def linear(cls, theta0: float, omega1: float = 0.0, phi0: float = 0.0,
               omega2: float = 0.0) -> "AngleLaw":
        return cls(LinearLaw(theta0, omega1), LinearLaw(phi0, omega2))

    @property
    def is_linear(self) -> bool:
        return isinstance(self.theta, LinearLaw) and isinstance(self.phi, LinearLaw)

    def angles(self, t):
        return self.theta.value(t), self.phi.value(t)

    def rates(self, t):
        return self.theta.derivative(t), self.phi.derivative(t)

    def accelerations(self, t):
        return self.theta.second_derivative(t), self.phi.second_derivative(t)

    def is_drive_free(self, t, tol: float = 0.0):
        """True when theta'' = phi'' = theta'*phi' = 0 at time t.

        For an array of t the answer is a boolean array (or one bool when
        the law's rates do not depend on t); a non-finite rate or
        acceleration is never drive free.
        """
        td, pd = self.rates(t)
        tdd, pdd = self.accelerations(t)
        free = ((np.abs(tdd) <= tol) & (np.abs(pdd) <= tol)
                & (np.abs(td * pd) <= tol))
        return free if _is_array(free) else bool(free)


class ScalarField:
    """Differentiable scalar function of (x, y, z, t).

    Wraps an expression restricted to the spacetime variables and caches
    the four analytic partial derivatives.  Serves as the phase function
    h and the gauge function s.

    A template leaves some parameter names symbolic (`bound`): it is
    parsed and differentiated once, and `bind` gives the names their
    values, one number or one array of per-draw values each.
    """

    _AXES = ("x", "y", "z", "t")

    def __init__(self, expr: Expr, bound=()):
        self.bound = frozenset(bound)
        extra = expr.free_variables() - set(self._AXES) - self.bound
        if extra:
            names = ", ".join(sorted(extra))
            raise ExpressionError(
                f"scalar field may only depend on x, y, z, t, found: {names}"
            )
        self.expr = expr
        self._partials = {axis: diff_expr(expr, axis) for axis in self._AXES}
        self._values: dict = {}

    @classmethod
    def from_text(cls, text: str, parameters: Mapping[str, float] | None = None,
                  bound=()):
        symbols = {name: Var(name) for name in bound}
        return cls(parse_expr(text, {**(parameters or {}), **symbols}), bound)

    def bind(self, **values: Number) -> "ScalarField":
        """The template with its bound names set; shares the parsed trees."""
        field = copy.copy(self)
        field._values = values
        return field

    def free_variables(self) -> frozenset:
        return self.expr.free_variables() - self.bound

    @property
    def is_time_only(self) -> bool:
        return self.free_variables() <= {"t"}

    def value(self, x=0.0, y=0.0, z=0.0, t=0.0):
        return eval_expr(self.expr, x=x, y=y, z=z, t=t, **self._values)

    def partial(self, axis: str, x=0.0, y=0.0, z=0.0, t=0.0):
        if axis not in self._partials:
            raise ExpressionError(f"unknown axis '{axis}'")
        return eval_expr(self._partials[axis], x=x, y=y, z=z, t=t,
                         **self._values)

    def sample_time(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized values on a time grid at the origin, as a read-only
        view; signed zeros are kept."""
        out = self.expr.evaluate({"x": 0.0, "y": 0.0, "z": 0.0, "t": ts,
                                  **self._values})
        return np.broadcast_to(out, np.shape(ts))

    def __repr__(self):
        return f"ScalarField({str(self.expr)!r})"


def plane_wave_phase(energy: float, theta: float, phi: float) -> ScalarField:
    """Phase E0*(x*sin(theta)*cos(phi) + y*sin(theta)*sin(phi) + z*cos(theta) - t).

    The gradient direction equals the propagation direction set by the
    constant angles, so a particle carrying this phase moves as a free
    particle of energy E0.
    """
    cx = energy * math.sin(theta) * math.cos(phi)
    cy = energy * math.sin(theta) * math.sin(phi)
    cz = energy * math.cos(theta)
    expr = _sub(
        _add(
            _add(_mul(Const(cx), Var("x")), _mul(Const(cy), Var("y"))),
            _mul(Const(cz), Var("z")),
        ),
        _mul(Const(energy), Var("t")),
    )
    return ScalarField(expr)
