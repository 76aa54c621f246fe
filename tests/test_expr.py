import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolica import expr
from parabolica.errors import ConfigError, ExprSyntaxError, IndexOutOfRange, MissingBinding
from parabolica.expr import (
    Binary,
    EvalContext,
    Num,
    Unary,
    Var,
    coefficient,
    evaluate,
    parse,
    pretty,
)


def ev(source, d=1, k=0, **bindings):
    return evaluate(parse(source, d, k), EvalContext(**bindings))


class TestParsing:
    def test_precedence_power_over_unary_minus(self):
        ast = parse("-2^2", d=1)
        assert ast.root == Unary("neg", Binary("^", Num(2.0), Num(2.0)))

    def test_power_right_associative(self):
        ast = parse("2^3^2", d=1)
        assert ast.root == Binary("^", Num(2.0), Binary("^", Num(3.0), Num(2.0)))

    def test_left_associative_subtraction(self):
        ast = parse("1 - 2 - 3", d=1)
        assert ast.root == Binary("-", Binary("-", Num(1.0), Num(2.0)), Num(3.0))

    def test_mul_binds_tighter_than_add(self):
        ast = parse("1 + 2 * 3", d=1)
        assert ast.root == Binary("+", Num(1.0), Binary("*", Num(2.0), Num(3.0)))

    def test_unary_minus_in_exponent(self):
        ast = parse("2^-3", d=1)
        assert ast.root == Binary("^", Num(2.0), Unary("neg", Num(3.0)))

    def test_variables(self):
        assert parse("t", d=1).root == Var("t")
        assert parse("x[1]", d=2).root == Var("x", (1,))
        assert parse("gamma[0][1]", d=2).root == Var("gamma", (0, 1))
        assert parse("u[0]", d=1, k=1).root == Var("u", (0,))

    def test_scientific_number(self):
        assert parse("1.5e-3", d=1).root == Num(1.5e-3)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("1 + * 2", d=1)
        assert info.value.position == 4

    def test_unknown_character(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 ? 2", d=1)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 + 2 )", d=1)

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(1 + 2", d=1)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange) as info:
            parse("x[3]", d=2)
        assert info.value.variable == "x"
        assert info.value.index == 3
        with pytest.raises(IndexOutOfRange):
            parse("gamma[0][2]", d=2)
        with pytest.raises(IndexOutOfRange):
            parse("u[0]", d=1, k=0)

    def test_bare_gamma_only_inside_trace(self):
        with pytest.raises(ExprSyntaxError):
            parse("gamma + 1", d=1)
        assert parse("trace(gamma)", d=3).root == Unary("trace", Var("gamma"))

    def test_min_requires_two_arguments(self):
        with pytest.raises(ExprSyntaxError):
            parse("min(1)", d=1)

    NESTS = {
        "brackets": (lambda k: "(" * k + "1" + ")" * k, 100),
        "minus": (lambda k: "-" * k + "1", 100),
        "exponents": (lambda k: "1^" * k + "1", 200),
        "calls": (lambda k: "sin(" * k + "1" + ")" * k, 400),
    }

    @pytest.mark.parametrize("kind", sorted(NESTS))
    def test_operands_nest_at_most_100_levels(self, kind):
        # The whole expression is the first level, so 99 wrappings parse.
        nest, position = self.NESTS[kind]
        assert np.isfinite(evaluate(parse(nest(99), d=1), EvalContext()))
        with pytest.raises(ExprSyntaxError, match="nest more than 100 levels") as info:
            parse(nest(100), d=1)
        assert info.value.position == position

    def test_the_tree_is_at_most_200_levels_deep(self):
        source = "+".join(["x[0]"] * 200)
        ast = parse(source, d=1)
        assert ev(source, x=np.array([0.5])) == 100.0
        # Every walk of the deepest tree stays inside the recursion limit.
        assert ast == parse(source, d=1)
        hash(ast.root)
        assert repr(ast).count("Binary") == 199
        assert pretty(ast).count("(") == 199
        with pytest.raises(ExprSyntaxError, match="more than 200 levels deep"):
            parse("+".join(["x[0]"] * 201), d=1)
        with pytest.raises(ExprSyntaxError, match="more than 200 levels deep"):
            parse("*".join(["(1+1)"] * 200), d=1)


class TestEvaluation:
    def test_discount_factor(self):
        # Independently: math.exp(-0.05 * 2) = 0.9048374180359595
        value = ev("exp(-0.05*(2 - t))", t=0.0, x=np.zeros(1))
        assert value == pytest.approx(0.9048374180359595, abs=1e-15)

    def test_clipped_quadratic(self):
        assert ev("max(x[0], 0) ^ 2", x=np.array([-1.5])) == 0.0
        assert ev("max(x[0], 0) ^ 2", x=np.array([2.0])) == 4.0

    def test_trace(self):
        gamma = np.array([[1.0, 9.0], [9.0, 4.0]])
        assert ev("trace(gamma)", d=2, x=np.zeros(2), gamma=gamma) == 5.0

    def test_division_by_zero_is_inf(self):
        assert ev("1/0") == np.inf
        assert ev("-1/0") == -np.inf

    def test_nan_propagates(self):
        assert np.isnan(ev("log(0 - 1) + 7"))

    def test_unary_minus_of_power(self):
        assert ev("-2^2") == -4.0

    def test_missing_binding(self):
        with pytest.raises(MissingBinding):
            ev("y + 1")
        with pytest.raises(MissingBinding):
            ev("z[0]", x=np.zeros(1))

    def test_wrong_width_rejected(self):
        with pytest.raises(MissingBinding):
            ev("x[0]", d=2, x=np.zeros(3))

    def test_batched_evaluation_broadcasts(self):
        ast = parse("x[0]^2 + t", d=1)
        xs = np.linspace(-2, 2, 11).reshape(-1, 1)
        out = evaluate(ast, EvalContext(t=0.25, x=xs))
        assert out.shape == (11,)
        np.testing.assert_allclose(out, xs[:, 0] ** 2 + 0.25, rtol=0, atol=0)

    def test_evaluation_is_pure(self):
        ast = parse("sin(x[0]) * exp(t) - y / 3", d=1)
        ctx = EvalContext(t=0.37, x=np.array([1.234]), y=np.float64(-0.5))
        first = evaluate(ast, ctx)
        second = evaluate(ast, ctx)
        assert first == second  # bit identical


class TestCoefficient:
    def test_arguments_bind_by_position(self):
        fn = coefficient("t + x[0]*u[0]", 1, ("t", "x", "u"), 0, "control alpha", k=1)
        np.testing.assert_array_equal(fn(0.5, np.array([[2.0], [3.0]]), np.array([4.0])),
                                      [8.5, 12.5])

    @staticmethod
    def leaf(index, d, offset):
        """A literal 0, a -0.0, a t-only or an x-dependent entry, cycling over the slots."""
        flat = sum(i * d**n for n, i in enumerate(index))
        kind = (flat + offset) % 4
        return ("0", "-0.0", f"0.5*t + {flat}",
                f"x[{flat % d}]*x[{(flat + 1) % d}] - {flat}")[kind]

    @pytest.mark.parametrize("offset", range(4))
    @pytest.mark.parametrize("rank", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_output_is_the_stack_of_one_evaluate_per_leaf(self, monkeypatch, d, rank, offset):
        if rank == 0:
            source = self.leaf((), d, offset)
        elif rank == 1:
            source = [self.leaf((i,), d, offset) for i in range(d)]
        else:
            source = [[self.leaf((i, j), d, offset) for j in range(d)] for i in range(d)]
        x = np.random.default_rng(d).normal(size=(7, d))
        x[0] = -0.0
        x[1] = 0.0
        ctx = EvalContext(t=0.3, x=x)

        def reference(src, depth):
            if depth:
                return np.stack([reference(s, depth - 1) for s in src], axis=-depth)
            value = np.asarray(evaluate(parse(src, d), ctx), dtype=np.float64)
            return np.broadcast_to(value, (len(x),))

        expected = reference(source, rank)
        calls = []
        real = expr.evaluate
        monkeypatch.setattr(expr, "evaluate", lambda ast, c: calls.append(ast) or real(ast, c))
        fn = coefficient(source, d, ("t", "x"), rank, "c")
        for _ in range(2):
            got = fn(0.3, x)
            assert got.shape == (len(x),) + (d,) * rank and got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        # One evaluate per leaf and call, except for a literal 0, which is never evaluated.
        evaluated = sum(leaf != "0" for leaf in np.ravel(np.array(source, dtype=object)))
        assert len(calls) == 2 * evaluated
        assert len(set(map(id, calls))) == evaluated
        assert all(ast.root != expr.Num(0.0) for ast in calls)

    @pytest.mark.parametrize("rank", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 4])
    def test_an_all_zero_coefficient_evaluates_nothing(self, monkeypatch, d, rank):
        source = "0"
        for _ in range(rank):
            source = [source] * d
        monkeypatch.setattr(expr, "evaluate", lambda ast, c: pytest.fail("evaluated a literal 0"))
        fn = coefficient(source, d, ("x",), rank, "mu")
        got = fn(np.full((5, d), -1.0))
        assert got.shape == (5,) + (d,) * rank
        assert not np.any(got.view(np.int64))  # +0.0 everywhere

    @pytest.mark.parametrize("source, rank", [
        (["1", "2"], 0),
        ("12", 1),
        (["1"], 1),
        (["1", "2", "3"], 1),
        ([["1", "2"], "34"], 2),
        ([["1", "2"], ["3"]], 2),
        ([True, "0"], 1),
        ({"x": "1"}, 0),
    ])
    def test_other_nesting_or_width_is_rejected(self, source, rank):
        with pytest.raises(ConfigError, match="sigma"):
            coefficient(source, 2, ("x",), rank, "sigma")

    @pytest.mark.parametrize("source", ["t", "y", "z[0]", "gamma[0][1]", "trace(gamma)"])
    def test_names_outside_the_signature_are_rejected(self, source):
        with pytest.raises(ConfigError, match="g may reference x only"):
            coefficient(source, 2, ("x",), 0, "g")


# ---------------------------------------------------------------------------
# Reference evaluator: an independent, deliberately naive tree walk used to
# pin down the production evaluator's semantics exactly.
# ---------------------------------------------------------------------------

def reference_eval(node, ctx):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        if node.name == "t":
            return np.float64(ctx.t)
        if node.name == "y":
            return np.float64(ctx.y)
        if node.name == "gamma":
            i, j = node.index
            return np.float64(ctx.gamma[i][j])
        return np.float64(getattr(ctx, node.name)[node.index[0]])
    if isinstance(node, Unary):
        if node.op == "neg":
            return -reference_eval(node.operand, ctx)
        if node.op == "trace":
            total = np.float64(0.0)
            for i in range(len(ctx.gamma)):
                total = total + np.float64(ctx.gamma[i][i])
            return total
        fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
              "log": np.log, "sqrt": np.sqrt, "abs": np.abs}[node.op]
        return fn(reference_eval(node.operand, ctx))
    a = reference_eval(node.left, ctx)
    b = reference_eval(node.right, ctx)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    if node.op == "^":
        return np.power(a, b)
    if node.op == "min":
        return np.minimum(a, b)
    return np.maximum(a, b)


def random_node(rng, depth, d, k):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.4:
            return Num(float(np.round(rng.uniform(-3, 3), 3)))
        if roll < 0.55:
            return Var("t")
        if roll < 0.65:
            return Var("y")
        if roll < 0.8:
            return Var("x", (int(rng.integers(d)),))
        if roll < 0.9:
            return Var("z", (int(rng.integers(d)),))
        return Var("gamma", (int(rng.integers(d)), int(rng.integers(d))))
    if rng.random() < 0.35:
        op = rng.choice(["neg", "sin", "cos", "exp", "log", "sqrt", "abs", "trace"])
        if op == "trace":
            return Unary("trace", Var("gamma"))
        return Unary(str(op), random_node(rng, depth - 1, d, k))
    op = rng.choice(["+", "-", "*", "/", "^", "min", "max"])
    return Binary(str(op), random_node(rng, depth - 1, d, k), random_node(rng, depth - 1, d, k))


def test_matches_reference_evaluator_on_random_trees():
    from parabolica.expr import ExprAst

    rng = np.random.default_rng(20260819)
    d = 2
    for _ in range(1000):
        root = random_node(rng, depth=6, d=d, k=0)
        ast = ExprAst(root, d=d, k=0)
        ctx = EvalContext(
            t=float(rng.uniform(0, 2)),
            x=rng.uniform(-2, 2, size=d),
            y=float(rng.uniform(-2, 2)),
            z=rng.uniform(-2, 2, size=d),
            gamma=rng.uniform(-2, 2, size=(d, d)),
        )
        with np.errstate(all="ignore"):
            want = reference_eval(root, ctx)
        got = evaluate(ast, ctx)
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert got == want  # exact, including inf


# ---------------------------------------------------------------------------
# Round-trip property
# ---------------------------------------------------------------------------

def _leaf_strategy(d, k):
    return st.one_of(
        st.builds(Num, st.floats(min_value=0, max_value=1e6, allow_nan=False)),
        st.sampled_from([Var("t"), Var("y")]),
        st.builds(lambda i: Var("x", (i,)), st.integers(0, d - 1)),
        st.builds(lambda i: Var("z", (i,)), st.integers(0, d - 1)),
        st.builds(lambda i, j: Var("gamma", (i, j)), st.integers(0, d - 1), st.integers(0, d - 1)),
    )


def _tree_strategy(d, k):
    return st.recursive(
        _leaf_strategy(d, k),
        lambda children: st.one_of(
            st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "exp", "log", "sqrt", "abs"]), children),
            st.just(Unary("trace", Var("gamma"))),
            st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^", "min", "max"]), children, children),
        ),
        max_leaves=25,
    )


@settings(max_examples=200, deadline=None)
@given(_tree_strategy(d=3, k=0))
def test_pretty_print_round_trips(root):
    from parabolica.expr import ExprAst

    ast = ExprAst(root, d=3, k=0)
    text = pretty(ast)
    reparsed = parse(text, d=3, k=0)
    assert reparsed.root == ast.root
    # And idempotent through a second cycle on parser-produced trees.
    assert parse(pretty(reparsed), d=3, k=0).root == reparsed.root


@pytest.mark.parametrize("wrap", [lambda n: Unary("neg", n), lambda n: Binary("^", Var("y"), n)],
                         ids=["minus", "exponent"])
def test_round_trip_holds_for_trees_50_levels_deep(wrap):
    # The printed form brackets every level, and these two spend two of
    # the parser's 100 nesting levels per tree level.
    from parabolica.expr import ExprAst

    node = Var("t")
    for _ in range(49):
        node = wrap(node)
    assert parse(pretty(ExprAst(node, d=1)), d=1).root == node
    with pytest.raises(ExprSyntaxError, match="nest more than 100 levels"):
        parse(pretty(ExprAst(wrap(node), d=1)), d=1)


def test_round_trip_on_source_strings():
    sources = [
        "exp(-0.05*(2 - t))",
        "-x[0]^2 + max(x[0], 0)",
        "trace(gamma) / 2 - y * z[0]",
        "1.5e-3 * sin(t) ^ 2",
    ]
    for s in sources:
        first = parse(s, d=1)
        again = parse(pretty(first), d=1)
        assert first.root == again.root


def test_frozen_grammar_examples():
    # The grammar doc pins these; they must never change meaning.
    assert ev("-2^2") == -4.0
    assert ev("2^3^2") == 512.0
    assert math.isinf(ev("1/0"))
    gamma = np.array([[1.0, 9.0], [9.0, 4.0]])
    assert ev("trace(gamma)", d=2, x=np.zeros(2), gamma=gamma) == 5.0
