import numpy as np
import pytest

from stablemanifold.expr import ExpressionError, compile_expression


@pytest.mark.parametrize("text,value", [
    ("2 + 3*4", 14.0),
    ("2^3^2", 512.0),        # right associative
    ("-2^2", -4.0),          # power binds tighter than unary minus
    ("1+2*3^2", 19.0),
    ("2*-3", -6.0),
    ("2^-3", 0.125),
    ("6/4", 1.5),
    ("exp(0)", 1.0),
    ("log(exp(2))", 2.0),
    ("1e2 + 2.5e-1", 100.25),
])
def test_constant_expressions(text, value):
    f = compile_expression(text, variables=())
    assert float(f()) == pytest.approx(value, rel=1e-15)


def test_variable_and_vectorized_eval():
    f = compile_expression("(1+t)^2", variables=("t",))
    assert float(f(t=3.0)) == 16.0
    out = f(t=np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [1.0, 4.0, 9.0])


def test_multiple_variables_broadcast():
    f = compile_expression("exp(a*t)", variables=("t", "a"))
    out = f(t=np.array([0.0, 1.0]), a=2.0)
    assert np.allclose(out, [1.0, np.exp(2.0)])


def test_whitespace_is_ignored():
    f = compile_expression("  1 +   t ", variables=("t",))
    assert float(f(t=4.0)) == 5.0


def test_compiled_metadata():
    f = compile_expression("1+t", variables=("t",))
    assert f.expression == "1+t"
    assert f.variables == ("t",)
    assert f.used == ("t",)
    g = compile_expression("exp(u2) * u1^3 - u2", variables=("t", "u1", "u2"))
    assert g.variables == ("t", "u1", "u2") and g.used == ("u1", "u2")


@pytest.mark.parametrize("bad,fragment", [
    ("", "unexpected token"),
    ("1 +", "unexpected token"),
    ("(1+2", "expected ')'"),
    ("1 + x", "unknown variable 'x'"),
    ("sin(t)", "unknown function 'sin'"),
    ("1 2", "trailing input"),
    ("log()", "unexpected token"),
    ("^2", "unexpected token"),
])
def test_syntax_errors_name_the_problem(bad, fragment):
    with pytest.raises(ExpressionError) as err:
        compile_expression(bad, variables=("t",))
    assert fragment in str(err.value)


def test_error_reports_position():
    with pytest.raises(ExpressionError) as err:
        compile_expression("1 + x", variables=("t",))
    assert "position 4" in str(err.value)


def test_division_by_zero_follows_ieee():
    f = compile_expression("1/t", variables=("t",))
    with np.errstate(divide="ignore"):
        assert np.isinf(f(t=0.0))
