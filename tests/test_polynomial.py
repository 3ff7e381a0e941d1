from fractions import Fraction

import pytest

from wronski.errors import DomainError
from wronski.polynomial import Polynomial

V = ("x", "y")


def P(terms, variables=V):
    return Polynomial(variables, terms)


def test_product_difference_of_squares():
    x_plus_y = P({(1, 0): 1, (0, 1): 1})
    x_minus_y = P({(1, 0): 1, (0, 1): -1})
    assert x_plus_y * x_minus_y == P({(2, 0): 1, (0, 2): -1})


def test_evaluate():
    f = P({(2, 0): 1, (0, 2): 1})
    assert f.evaluate({"x": 3, "y": 4}) == 25
    with pytest.raises(ValueError):
        f.evaluate({"x": 3})


def test_derivative():
    f = P({(3, 0): 1})
    assert f.derivative("x") == P({(2, 0): 3})
    assert f.derivative("y").is_zero()


def test_pow_and_scalar_ops():
    f = P({(1, 0): 1, (0, 0): 1})  # x + 1
    assert f ** 3 == P({(3, 0): 1, (2, 0): 3, (1, 0): 3, (0, 0): 1})
    assert 2 * f - f == f
    assert (f * Fraction(1, 2)) * 2 == f


def test_substitute_shear():
    f = P({(2, 0): 1})  # x^2
    x = Polynomial.variable("x", V)
    y = Polynomial.variable("y", V)
    g = f.substitute({"x": x + 2 * y})
    assert g == P({(2, 0): 1, (1, 1): 4, (0, 2): 4})


def test_substitute_simultaneous_swap():
    f = P({(2, 1): 5})  # 5 x^2 y
    x = Polynomial.variable("x", V)
    y = Polynomial.variable("y", V)
    g = f.substitute({"x": y, "y": x})
    assert g == P({(1, 2): 5})


def test_substitute_numeric():
    f = P({(1, 1): 1, (0, 0): -1})
    g = f.substitute({"y": Fraction(1, 2)})
    assert g.drop_unused() == Polynomial(("x",), {(1,): Fraction(1, 2), (0,): -1})


def test_content_primitive():
    f = P({(1, 0): Fraction(4, 3), (0, 1): Fraction(2, 9)})
    assert f.content() == Fraction(2, 9)
    g = f.primitive_part()
    assert g == P({(1, 0): 6, (0, 1): 1})
    assert g.content() == 1


def test_content_matches_the_fraction_computation():
    # ints, Fractions, negative coefficients and the zero polynomial
    from math import gcd, lcm

    from wronski.rng import Stream

    stream = Stream(0xC0471)
    for case in range(200):
        terms = {}
        for _ in range(case % 7):
            c = stream.int_in(-60, 60) * stream.int_in(1, 4)
            terms[(stream.int_in(0, 3), stream.int_in(0, 3))] = \
                Fraction(c, stream.int_in(1, 12)) if case % 3 else c
        f = P(terms)
        num, den = 0, 1
        for c in f.terms.values():
            q = Fraction(c)
            num, den = gcd(num, abs(q.numerator)), lcm(den, q.denominator)
        content = f.content()
        assert type(content) is Fraction and content == Fraction(num, den), terms
        if f.terms:
            reduced = [c / content for c in f.terms.values()]
            assert all(c.denominator == 1 for c in reduced)
            assert gcd(*(c.numerator for c in reduced)) == 1
    assert P({}).content() == 0


def test_univariate_views():
    f = P({(2, 1): 3, (0, 1): 1, (1, 0): 2})
    coeffs = f.as_univariate("x")
    assert len(coeffs) == 3
    assert coeffs == [Polynomial(("y",), {(1,): 1}), Polynomial.const(2, ("y",)),
                      Polynomial(("y",), {(1,): 3})]
    assert all(c.vars == ("y",) for c in coeffs)
    assert f.as_univariate("z") == [f]


def test_degree_queries():
    f = P({(2, 3): 1, (4, 0): 1})
    assert f.degree("x") == 4
    assert f.degree("y") == 3
    assert f.total_degree() == 5
    assert Polynomial.zero(V).degree("x") == -1


def test_zero_and_constant_normalization():
    f = P({(0, 0): Fraction(6, 3)})
    assert f.is_constant() and f.constant_value() == 2
    assert type(f.constant_value()) is int
    assert (f - 2).is_zero()


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        P({(-1, 0): 1})


def test_alignment_across_variable_sets():
    f = Polynomial(("x",), {(1,): 1})
    g = Polynomial(("y",), {(1,): 1})
    s = f + g
    assert set(s.vars) == {"x", "y"}
    assert s == P({(1, 0): 1, (0, 1): 1})


def test_str_output_sorted_with_carets():
    f = Polynomial(("t",), {(6,): 9, (3,): -3, (0,): 1})
    assert str(f) == "9*t^6 - 3*t^3 + 1"


def test_json_roundtrip():
    f = P({(2, 1): Fraction(-7, 2), (0, 0): 5})
    assert Polynomial.from_json(f.to_json()) == f


def _random_poly(stream, deg=2, vars_=V):
    terms = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            c = stream.int_in(-8, 8)
            if c and stream.int_in(0, 1):
                terms[(i, j)] = Fraction(c, stream.int_in(1, 5))
    return Polynomial(vars_, terms)


def test_substitute_composes_with_evaluation():
    from wronski.rng import Stream

    stream = Stream(0x5EB)
    x = Polynomial.variable("x", V)
    y = Polynomial.variable("y", V)
    for _ in range(25):
        f = _random_poly(stream)
        img = x + stream.int_in(-3, 3) * y
        pt = {"x": Fraction(stream.int_in(-5, 5), stream.int_in(1, 4)),
              "y": Fraction(stream.int_in(-5, 5), stream.int_in(1, 4))}
        lhs = f.substitute({"x": img}).evaluate(pt)
        rhs = f.evaluate({"x": img.evaluate(pt), "y": pt["y"]})
        assert lhs == rhs


def test_dense_views():
    TXY = ("t", "x", "y")
    f = Polynomial(TXY, {(3, 0, 0): 2, (0, 0, 0): Fraction(-1, 2)})
    assert f.dense("t") == [Fraction(-1, 2), 0, 0, 2]
    assert {(k, 0, 0): c for k, c in enumerate(f.dense("t")) if c} == f.terms
    assert Polynomial.const(5, TXY).dense("x") == [5]
    assert Polynomial.const(7, ()).dense("t") == [7]
    assert Polynomial.const(4, ("x",)).dense("t") == [4]
    assert Polynomial.zero(TXY).dense("t") == []
    with pytest.raises(DomainError):
        Polynomial(TXY, {(1, 1, 0): 1}).dense("t")
    with pytest.raises(DomainError):
        Polynomial(TXY, {(0, 0, 1): 1}).dense("t")
