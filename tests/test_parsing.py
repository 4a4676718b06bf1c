"""Grammar coverage for both parsers, including error positions and
render round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorscope import (
    ComplexRational,
    DiagonalMixedPolynomial,
    MixedTerm,
    ParseError,
    parse_mixed,
    parse_real_map,
    render_mixed,
    render_real_map,
)


def C(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


# ----------------------------------------------------------------------
# mixed polynomials


def test_parse_mixed_three_term_example():
    psi = parse_mixed("(1+i) z1 z1~ + (-2-i) z2^2 z2~^2 + i z3^2 z3~")
    assert psi.n == 3
    assert [(t.j, t.coeff, t.a, t.b) for t in psi.terms] == [
        (1, C(1, 1), 1, 1),
        (2, C(-2, -1), 2, 2),
        (3, C(0, 1), 2, 1),
    ]


def test_parse_mixed_minimal():
    psi = parse_mixed("z1 z1~")
    assert psi.n == 1
    assert psi.terms == (MixedTerm(1, C(1), 1, 1),)


def test_parse_mixed_duplicate_variable():
    with pytest.raises(ParseError, match="duplicate variable z1"):
        parse_mixed("z1 z1~ + z1^2 z1~")


def test_parse_mixed_conj_syntax():
    assert parse_mixed("conj(z2)^3 z2") == parse_mixed("z2 z2~^3")
    assert parse_mixed("2 conj(z1)") == parse_mixed("2 z1~")


def test_parse_mixed_repeated_factors_accumulate():
    psi = parse_mixed("z1 z1 z1~ z1^2")
    assert psi.terms[0].a == 4
    assert psi.terms[0].b == 1


def test_parse_mixed_coefficient_shapes():
    assert parse_mixed("3/4 z1").terms[0].coeff == C(Fraction(3, 4))
    assert parse_mixed("0.25 z1").terms[0].coeff == C(Fraction(1, 4))
    assert parse_mixed("-i z1").terms[0].coeff == C(0, -1)
    assert parse_mixed("(1/2-3i) z1").terms[0].coeff == C(Fraction(1, 2), -3)
    assert parse_mixed("(-i) z1").terms[0].coeff == C(0, -1)
    assert parse_mixed("+2 z1").terms[0].coeff == C(2)
    assert parse_mixed("2*z1").terms[0].coeff == C(2)


def test_parse_mixed_vars_directive():
    psi = parse_mixed("z2 z2~ vars=4")
    assert psi.n == 4
    assert [t.j for t in psi.terms] == [2]
    with pytest.raises(ParseError, match="vars=1 but z2 occurs"):
        parse_mixed("z2 z2~ vars=1")


def test_parse_mixed_default_n_is_max_index():
    assert parse_mixed("z3 z3~").n == 3


def test_parse_mixed_error_positions():
    with pytest.raises(ParseError) as err:
        parse_mixed("z1 z1~ + $")
    assert err.value.pos == 9

    with pytest.raises(ParseError, match="one variable per term"):
        parse_mixed("z1 z2")

    with pytest.raises(ParseError, match="degree zero"):
        parse_mixed("2 z1^0")

    with pytest.raises(ParseError, match="expected variable like z1"):
        parse_mixed("(1+i)")

    with pytest.raises(ParseError, match="trailing input"):
        parse_mixed("z1 z1~ )")

    with pytest.raises(ParseError, match="division by zero"):
        parse_mixed("1/0 z1")


def test_parse_mixed_empty_input():
    with pytest.raises(ParseError, match="end of input"):
        parse_mixed("")


def test_render_mixed_round_trip_examples():
    for text in [
        "(1+i) z1 z1~ + (-2-i) z2^2 z2~^2 + i z3^2 z3~",
        "z1 z1~ - z2 z2~ + z3^2 z3~",
        "-3/4 z1^2 + (1/2+1/3i) z2 z2~^5 vars=3",
        "i z1",
    ]:
        psi = parse_mixed(text)
        assert parse_mixed(render_mixed(psi)) == psi


def test_render_mixed_appends_vars_when_needed():
    psi = DiagonalMixedPolynomial(3, [MixedTerm(1, C(1), 1, 1)])
    assert render_mixed(psi).endswith("vars=3")


coeffs = st.builds(
    ComplexRational,
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
).filter(lambda c: not c.is_zero())


@st.composite
def mixed_polys(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    indices = draw(st.sets(st.integers(min_value=1, max_value=n), min_size=1))
    terms = []
    for j in sorted(indices):
        a = draw(st.integers(min_value=0, max_value=3))
        b = draw(st.integers(min_value=0 if a else 1, max_value=3))
        terms.append(MixedTerm(j, draw(coeffs), a, b))
    return DiagonalMixedPolynomial(n, terms)


@settings(max_examples=200, deadline=None)
@given(mixed_polys())
def test_render_parse_round_trip_property(psi):
    assert parse_mixed(render_mixed(psi)) == psi


# ----------------------------------------------------------------------
# real polynomial maps


def test_parse_real_map_two_components():
    f = parse_real_map("(x*y + z^2, x) vars x,y,z")
    assert f.n == 3
    assert f.p == 2
    assert f.var_names == ("x", "y", "z")
    assert f.components[0] == {(1, 1, 0): Fraction(1), (0, 0, 2): Fraction(1)}
    assert f.components[1] == {(1, 0, 0): Fraction(1)}


def test_parse_real_map_single_component():
    f = parse_real_map("(x1) vars x1")
    assert (f.n, f.p) == (1, 1)
    assert f.eval_exact([Fraction(7)]) == (Fraction(7),)


def test_parse_real_map_quartic_pair():
    f = parse_real_map("(x^2+y^2+z^3+z*w^2, w^3+w*z^2) vars x,y,z,w")
    assert (f.n, f.p) == (4, 2)
    assert f.components[0][(0, 0, 3, 0)] == 1
    assert f.components[1][(0, 0, 2, 1)] == 1


def test_parse_real_map_arithmetic():
    f = parse_real_map("((x+y)^2 - x^2 - y^2, 1/2*x - 0.5*x) vars x,y")
    assert f.components[0] == {(1, 1): Fraction(2)}
    assert f.components[1] == {}


def test_parse_real_map_unary_minus_and_parens():
    f = parse_real_map("(-x^2 + (y - x)*(y + x)) vars x,y")
    assert f.components[0] == {(2, 0): Fraction(-2), (0, 2): Fraction(1)}


def test_parse_real_map_signed_items_like_parse_mixed():
    # one signed-item loop: a leading '+' is accepted, a doubled sign is not
    assert parse_real_map("(+x, y) vars x,y") == parse_real_map("(x, y) vars x,y")
    with pytest.raises(ParseError, match="expected number, variable or"):
        parse_real_map("(x - -y, y) vars x,y")
    # monomials keep the order in which the terms introduce them
    f = parse_real_map("(-x^2 + (y - x)*(y + x)) vars x,y")
    assert list(f.components[0]) == [(2, 0), (0, 2)]


def test_parse_real_map_errors():
    with pytest.raises(ParseError, match="unknown variable 'q'"):
        parse_real_map("(x + q) vars x,y")
    with pytest.raises(ParseError, match="missing 'vars' clause"):
        parse_real_map("(x + y)")
    with pytest.raises(ParseError, match="duplicate variable name 'x'"):
        parse_real_map("(x) vars x,x")
    with pytest.raises(ParseError, match="trailing input"):
        parse_real_map("(x) vars x, y extra=1")
    with pytest.raises(ParseError, match="expected number, variable or"):
        parse_real_map("(x + ) vars x")


def test_render_real_map_round_trip():
    for text in [
        "(x*y + z^2, x) vars x,y,z",
        "(x^2+y^2+z^3+z*w^2, w^3+w*z^2) vars x,y,z,w",
        "(0, -x) vars x",
        "(3/4*u^2 - 2*v, u*v) vars u,v",
    ]:
        f = parse_real_map(text)
        g = parse_real_map(render_real_map(f))
        assert g == f
        assert g.var_names == f.var_names


@st.composite
def real_maps(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.integers(min_value=1, max_value=2))
    names = [f"x{i}" for i in range(1, n + 1)]
    comps = []
    for _ in range(p):
        comp = {}
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            expo = tuple(draw(st.integers(min_value=0, max_value=3))
                         for _ in range(n))
            q = draw(st.fractions(min_value=-4, max_value=4, max_denominator=5))
            if q:
                comp[expo] = comp.get(expo, Fraction(0)) + q
        comps.append({e: c for e, c in comp.items() if c})
    return RealPolynomialMap(n, comps, names)


from milnorscope import RealPolynomialMap  # noqa: E402


@settings(max_examples=150, deadline=None)
@given(real_maps())
def test_render_real_map_round_trip_property(f):
    assert parse_real_map(render_real_map(f)) == f
