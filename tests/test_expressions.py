"""Parser, evaluator, and symbolic-derivative tests for the expression toolkit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weyldyn.expressions import (
    AngleLaw,
    BinOp,
    Call,
    Const,
    DifferentiationError,
    EvaluationError,
    ExpressionError,
    ExprLaw,
    LinearLaw,
    MAX_DEPTH,
    Neg,
    ParseError,
    ScalarField,
    diff_expr,
    eval_expr,
    parse_expr,
    plane_wave_phase,
    Var,
)


def ev(text, **bindings):
    return eval_expr(parse_expr(text), **bindings)


def test_literals_and_arithmetic():
    assert ev("2 + 3*4") == 14.0
    assert ev("(2 + 3)*4") == 20.0
    assert ev("7/2") == 3.5
    assert ev("1 - 2 - 3") == -4.0
    assert ev("12/4/3") == 1.0
    assert ev("1.5e2") == 150.0
    assert ev(".5 + 2.") == 2.5


def test_power_is_right_associative_and_tight():
    assert ev("2^3^2") == 512.0
    assert ev("-x^2", x=3.0) == -9.0
    assert ev("(-x)^2", x=3.0) == 9.0
    assert ev("2^-2") == 0.25
    assert ev("2*3^2") == 18.0


def test_functions_and_pi():
    assert ev("sin(pi/2)") == pytest.approx(1.0, abs=1e-15)
    assert ev("cos(0)") == 1.0
    assert ev("tan(pi/4)") == pytest.approx(1.0, rel=1e-15)
    assert ev("exp(1)") == pytest.approx(math.e, rel=1e-15)
    assert ev("sqrt(2)^2") == pytest.approx(2.0, rel=1e-15)
    assert ev("abs(-3.5)") == 3.5


def test_variables_and_parameters():
    e = parse_expr("q*t + x", parameters={"q": 2.5})
    assert eval_expr(e, t=2.0, x=1.0) == 6.0
    # parameters fold to constants, so q is no longer free
    assert e.free_variables() == frozenset({"t", "x"})


def test_sin_squared_frozen_value():
    assert ev("sin(3*t)^2", t=math.pi / 6) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("", 0),
        ("sin(q)", 4),
        ("1 +", 3),
        ("(2", 2),
        ("foo(3)", 0),
        ("1..2", 2),
        ("x x", 2),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert exc.value.offset == offset


def test_unknown_identifier_message_names_it():
    with pytest.raises(ParseError, match="'q'"):
        parse_expr("sin(q)")


# an expression n levels deep, by shape: parser nesting or tree depth
DEEP = {
    "parentheses": lambda n: "(" * (n - 1) + "t" + ")" * (n - 1),
    "calls": lambda n: "tan(" * (n - 1) + "t" + ")" * (n - 1),
    "minus": lambda n: "-" * (n - 1) + "t",
    "powers": lambda n: "2^" * (n - 1) + "t",
    "sum chain": lambda n: "+".join(["t"] * n),
    "quotient chain": lambda n: "/".join(["(t+2)"] * (n - 1)),
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_depth_bound_is_exact(shape):
    deepest = parse_expr(DEEP[shape](MAX_DEPTH))
    # the second derivative of the deepest tree still evaluates
    eval_expr(diff_expr(diff_expr(deepest, "t"), "t"), t=np.array([0.5]))
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_expr(DEEP[shape](MAX_DEPTH + 1))


@pytest.mark.parametrize("text", ["(" * 400 + "t" + ")" * 400,
                                  "+".join(["t"] * 3000), "-" * 2000 + "t"],
                         ids=["parentheses", "sum chain", "minus"])
def test_deep_expression_is_a_parse_error_not_a_recursion_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_expr(text)


def test_evaluation_errors_name_the_subexpression():
    with pytest.raises(EvaluationError, match="sqrt"):
        eval_expr(parse_expr("sqrt(x)"), x=-1.0)
    with pytest.raises(EvaluationError, match="division by zero"):
        eval_expr(parse_expr("1/x"), x=0.0)


@pytest.mark.parametrize("text, x, message", [
    ("x^0.5", -8.0, "domain error in 'x^0.5': math domain error"),
    ("x^(-1)", 0.0, "domain error in 'x^(-1.0)': math domain error"),
    ("x^400", 10.0, "domain error in 'x^400.0': math range error"),
    # a numpy scalar divides to inf with a warning, not ZeroDivisionError
    ("1/x", np.float64(0.0), "division by zero in '1.0/x'"),
])
def test_scalar_evaluation_error_text(text, x, message):
    with pytest.raises(EvaluationError) as raised:
        eval_expr(parse_expr(text), x=x)
    assert str(raised.value) == message


DERIVATIVE_CORPUS = [
    ("x", "x", [0.3, 1.7, -2.2]),
    ("x^2", "x", [0.5, -1.3, 2.0]),
    ("x^3 - 2*x", "x", [0.4, 1.1, -0.7]),
    ("1/x", "x", [0.5, 2.0, -1.5]),
    ("sin(x)", "x", [0.1, 1.0, 2.5]),
    ("cos(2*x)", "x", [0.2, -0.9, 1.4]),
    ("tan(x)", "x", [0.2, 0.7, -0.4]),
    ("exp(-x^2)", "x", [0.0, 0.8, -1.2]),
    ("sqrt(x)", "x", [0.5, 2.0, 9.0]),
    ("abs(x)", "x", [0.5, 2.0, -1.5]),
    ("x*sin(x)", "x", [0.3, 1.9, -2.4]),
    ("sin(x)/x", "x", [0.4, 1.3, 2.9]),
    ("sin(cos(x))", "x", [0.2, 1.1, -0.8]),
    ("exp(sin(x))", "x", [0.0, 0.6, 2.2]),
    ("x^2*exp(x)", "x", [0.3, -0.5, 1.2]),
    ("(x+1)/(x-2)", "x", [0.0, 1.0, -1.0]),
    ("2^t", "t", [0.0, 1.0, 2.5]),
    ("t^2 + 3*t + 1", "t", [0.0, -1.0, 4.0]),
    ("sqrt(1 + t^2)", "t", [0.0, 1.0, -2.0]),
    ("sin(t)^2 + cos(t)^2", "t", [0.3, 1.4, -0.9]),
    ("z*y", "z", [0.5, 1.5, -2.0]),
    ("sin(z)*cos(y)", "y", [0.2, 0.9, -1.1]),
    ("x*y + y*z + z*x", "y", [0.5, 1.0, -1.5]),
    ("exp(x)/(1 + exp(x))", "x", [0.0, 1.0, -1.0]),
]


@pytest.mark.parametrize("text, var, points", DERIVATIVE_CORPUS)
def test_symbolic_derivative_matches_central_difference(text, var, points):
    expr = parse_expr(text)
    deriv = diff_expr(expr, var)
    others = {v: 0.7 for v in expr.free_variables() if v != var}
    h = 1e-6
    for p in points:
        hi = eval_expr(expr, **others, **{var: p + h})
        lo = eval_expr(expr, **others, **{var: p - h})
        numeric = (hi - lo) / (2 * h)
        symbolic = eval_expr(deriv, **others, **{var: p})
        assert symbolic == pytest.approx(numeric, rel=1e-6, abs=1e-6)


def test_derivative_of_foreign_variable_is_zero():
    d = diff_expr(parse_expr("sin(x)*t"), "y")
    assert eval_expr(d, x=1.0, t=2.0) == 0.0


def test_power_differentiation_restrictions():
    with pytest.raises(DifferentiationError):
        diff_expr(parse_expr("x^x"), "x")
    with pytest.raises(DifferentiationError):
        diff_expr(parse_expr("(x - 5)^t"), "t")
    # constant positive base is fine
    d = diff_expr(parse_expr("2^t"), "t")
    assert eval_expr(d, t=3.0) == pytest.approx(math.log(2) * 8.0, rel=1e-14)


ATOMS = st.sampled_from(["x", "t", "z", "1", "2", "0.5", "pi"])


@st.composite
def expr_texts(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(ATOMS)
    kind = draw(st.sampled_from(["bin", "neg", "call", "pow"]))
    if kind == "bin":
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        a = draw(expr_texts(depth + 1))
        b = draw(expr_texts(depth + 1))
        return f"({a} {op} ({b} + 3))" if op == "/" else f"({a} {op} {b})"
    if kind == "neg":
        return f"-({draw(expr_texts(depth + 1))})"
    if kind == "pow":
        return f"({draw(expr_texts(depth + 1))})^2"
    fn = draw(st.sampled_from(["sin", "cos", "exp", "abs"]))
    return f"{fn}({draw(expr_texts(depth + 1))})"


@given(expr_texts())
@example("(-(-(x)) / ((1 - (2)^2) + 3))")  # the guard (b + 3) is zero
@example("exp(exp(exp(pi)))")  # overflows
@settings(max_examples=200, deadline=None)
def test_print_parse_round_trip(text):
    expr = parse_expr(text)
    again = parse_expr(str(expr))
    bindings = {"x": 0.37, "t": 1.21, "z": -0.58}
    try:
        a = eval_expr(expr, **bindings)
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as raised:
            eval_expr(again, **bindings)
        assert str(raised.value) == str(exc)
        return
    b = eval_expr(again, **bindings)
    assert math.isfinite(a)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_round_trip_preserves_precedence_shapes():
    for text in ["-(x+1)*t", "2^-2", "-x^2", "(x-1)/(t-2)", "x - (t - 1)"]:
        expr = parse_expr(text)
        again = parse_expr(str(expr))
        vals = {"x": 3.3, "t": 4.4}
        assert eval_expr(expr, **vals) == eval_expr(again, **vals)


def test_linear_law_derivatives_are_exact():
    law = LinearLaw(1.0, 2.0)
    assert law.value(3.0) == 7.0
    assert law.derivative(123.456) == 2.0
    assert law.second_derivative(5.0) == 0.0


def test_expr_law_derivatives():
    q = ExprLaw(parse_expr("t^2 - 1"))
    assert q.value(2.0) == 3.0
    assert q.derivative(2.0) == 4.0
    assert q.second_derivative(2.0) == 2.0


def test_expr_law_rejects_spatial_variables():
    from weyldyn.expressions import ExpressionError

    with pytest.raises(ExpressionError, match="x"):
        ExprLaw(parse_expr("x + t"))


def test_each_caller_refuses_the_variables_it_does_not_allow():
    # each with its own error class and message, the names sorted
    from weyldyn.dynamics import ExprField

    w_and_x = BinOp("+", Var("x"), Var("w"))
    refusals = [
        (lambda: ExprLaw(w_and_x), ExpressionError,
         "time law may only depend on t, found: w, x"),
        (lambda: ScalarField(w_and_x), ExpressionError,
         "scalar field may only depend on x, y, z, t, found: w"),
        (lambda: ScalarField(BinOp("*", w_and_x, Var("a")), bound="w"),
         ExpressionError,
         "scalar field may only depend on x, y, z, t, found: a"),
        (lambda: ExprField(parse_expr("t"), parse_expr("0"), w_and_x),
         ValueError, "field expressions may only use t, found: w, x"),
    ]
    for make, error, message in refusals:
        with pytest.raises(ValueError) as exc:
            make()
        assert type(exc.value) is error
        assert str(exc.value) == message
    assert ScalarField(w_and_x, bound="w").free_variables() == {"x"}


def test_angle_law_linear_parts():
    law = AngleLaw.linear(0.5, 1.5, 0.25, -2.0)
    assert law.theta == LinearLaw(0.5, 1.5)
    assert law.phi == LinearLaw(0.25, -2.0)
    th, ph = law.angles(2.0)
    assert th == pytest.approx(3.5)
    assert ph == pytest.approx(-3.75)
    assert law.accelerations(1.0) == (0.0, 0.0)


def test_angle_law_drive_free_detection():
    assert AngleLaw.linear(0.3, 2.0, 0.1, 0.0).is_drive_free(1.0)
    assert AngleLaw.linear(0.3, 0.0, 0.1, 4.0).is_drive_free(1.0)
    assert not AngleLaw.linear(0.3, 2.0, 0.1, 4.0).is_drive_free(1.0)
    quad = AngleLaw(ExprLaw(parse_expr("t^2")), LinearLaw(0.0, 0.0))
    assert not quad.is_drive_free(1.0)


def test_plane_wave_phase_frozen_values():
    h = plane_wave_phase(2.0, 0.0, 0.0)
    assert h.value(0.0, 0.0, 0.0, 1.0) == pytest.approx(-2.0, abs=1e-15)
    assert h.partial("t", 0.0, 0.0, 0.0, 1.0) == pytest.approx(-2.0, abs=1e-15)
    assert h.partial("z", 0.0, 0.0, 0.0, 1.0) == pytest.approx(2.0, abs=1e-15)
    # x partial vanishes when the propagation axis is z
    assert h.partial("x", 0.5, 0.5, 0.5, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_scalar_field_basics():
    s = ScalarField.from_text("x*t + z^2")
    assert s.value(2.0, 0.0, 3.0, 4.0) == 17.0
    assert s.partial("x", 2.0, 0.0, 3.0, 4.0) == 4.0
    assert s.partial("z", 2.0, 0.0, 3.0, 4.0) == 6.0
    assert not s.is_time_only
    assert ScalarField.from_text("sin(t)").is_time_only


def test_scalar_field_value_vectorized():
    import numpy as np

    s = ScalarField.from_text("t^2 + 1")
    ts = np.linspace(0.0, 2.0, 5)
    assert s.value(t=ts) == pytest.approx(ts**2 + 1)


# --- array evaluation path against the scalar path ----------------------

LEAVES = st.one_of(st.just(Var("t")),
                   st.floats(-3.0, 3.0, allow_nan=False).map(Const),
                   st.sampled_from([Const(0.0), Const(1.0), Const(-2.0)]))
TIMES = st.lists(st.one_of(st.floats(-4.0, 4.0, allow_nan=False),
                           st.sampled_from([0.0, 1.0, -1.0, 2.0])),
                 min_size=1, max_size=6)


def exact_trees():
    """Trees of operations that numpy and math round identically."""
    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from(["sin", "cos", "sqrt", "abs"]),
                      children).map(lambda a: Call(*a)),
            st.tuples(st.sampled_from(["+", "-", "*", "/"]), children,
                      children).map(lambda a: BinOp(*a)))
    return st.recursive(LEAVES, extend, max_leaves=8)


def last_bit_trees():
    """exp, tan or ^ over exact trees: numpy's exp, tan and power may differ
    from math's in the last bit."""
    sub = exact_trees()
    return st.one_of(
        st.tuples(st.sampled_from(["exp", "tan"]), sub).map(lambda a: Call(*a)),
        st.tuples(sub, sub).map(lambda a: BinOp("^", *a)))


def _absorbs(expr) -> bool:
    """An infinite intermediate can turn finite again on the array path
    (x/inf = 0, exp(-inf) = 0, nan^0 = 1) where the scalar path raised."""
    text = str(expr)
    return any(token in text for token in ("/", "^", "exp"))


def _check_paths(expr, ts, last_bit):
    try:
        values = np.broadcast_to(expr.evaluate({"t": np.array(ts)}),
                                 (len(ts),))
    except EvaluationError:
        # a subtree free of t is evaluated as a scalar on both paths
        for t in ts:
            with pytest.raises(EvaluationError):
                expr.evaluate({"t": t})
        return
    for t, a in zip(ts, values):
        try:
            s = float(expr.evaluate({"t": t}))
        except EvaluationError:
            assert _absorbs(expr) or not np.isfinite(a), (str(expr), t, a)
            continue
        if math.isnan(s):
            assert math.isnan(a), (str(expr), t, a)
        elif last_bit:
            assert a in (s, np.nextafter(s, math.inf),
                         np.nextafter(s, -math.inf)), (str(expr), t, a, s)
        else:
            assert (np.float64(a).view(np.uint64)
                    == np.float64(s).view(np.uint64)), (str(expr), t, a, s)


@given(exact_trees(), TIMES)
@settings(max_examples=400, deadline=None)
def test_array_path_matches_scalar_path_bit_for_bit(expr, ts):
    _check_paths(expr, ts, last_bit=False)


@given(last_bit_trees(), TIMES)
@settings(max_examples=200, deadline=None)
def test_array_path_within_one_ulp_for_exp_tan_pow(expr, ts):
    _check_paths(expr, ts, last_bit=True)


@given(exact_trees(), exact_trees(), TIMES)
@settings(max_examples=400, deadline=None)
def test_array_power_equals_scalar_power_bit_for_bit(base, exponent, ts):
    expr = BinOp("^", base, exponent)
    try:
        values = np.broadcast_to(expr.evaluate({"t": np.array(ts)}),
                                 (len(ts),))
    except EvaluationError:
        return  # free of t: both paths are the scalar path
    for t, a in zip(ts, values):
        try:
            base.evaluate({"t": t}), exponent.evaluate({"t": t})
        except EvaluationError:
            continue  # an operand the scalar path cannot evaluate
        try:
            s = float(expr.evaluate({"t": t}))
        except EvaluationError:
            assert not np.isfinite(a), (str(expr), t, a)
            continue
        assert (np.float64(a).view(np.uint64)
                == np.float64(s).view(np.uint64)), (str(expr), t, a, s)


def test_array_power_takes_libm_pow_on_squares():
    # np.power's square fast path may round differently from math.pow
    xs = np.random.default_rng(5).uniform(-2.0, 2.0, 20000)
    got = parse_expr("t^2").evaluate({"t": xs})
    assert got.tolist() == [math.pow(x, 2.0) for x in xs.tolist()]


def test_array_power_domain_and_overflow_follow_numpy():
    t = np.array([-8.0, 4.0, 0.0, 10.0])
    got = BinOp("^", Var("t"), Const(0.5)).evaluate({"t": t})
    assert math.isnan(got[0]) and got[1] == 2.0 and got[2] == 0.0
    got = BinOp("^", Var("t"), Const(-1.0)).evaluate({"t": t})
    assert got[2] == math.inf
    assert BinOp("^", Var("t"), Const(400.0)).evaluate({"t": t})[3] \
        == math.inf


def test_scalar_field_template_binds_per_draw_values():
    template = ScalarField.from_text("a*sin(b*t) + c*x", bound="abc")
    assert template.free_variables() == {"t", "x"}
    with pytest.raises(EvaluationError, match="unbound variable 'a'"):
        template.value(t=1.0)
    a, b = np.array([1.0, -2.0]), np.array([0.5, 3.0])
    s = template.bind(a=a, b=b, c=0.25)
    t = np.array([0.3, -1.1])
    assert s.value(x=2.0, t=t).tolist() == [
        ScalarField.from_text("a*sin(b*t) + c*x",
                              {"a": a[i], "b": b[i], "c": 0.25})
        .value(x=2.0, t=t[i]) for i in range(2)]
    assert s.partial("t", t=t).tolist() == (a * np.cos(b * t) * b).tolist()
    assert s.partial("x", t=t) == 0.25
    with pytest.raises(ExpressionError, match="found: w"):
        ScalarField(BinOp("*", Var("a"), Var("w")), bound="a")
