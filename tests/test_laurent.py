import random

import pytest

from coxkl.laurent import LaurentPoly
from fractions import Fraction

v = LaurentPoly.monomial(1)
vi = LaurentPoly.monomial(-1)
one = LaurentPoly.one()
zero = LaurentPoly.zero()
q = v  # same generator, contextual letter


def P(*pairs):
    return LaurentPoly(pairs)


def rand_poly(rng):
    n = rng.randint(0, 5)
    return LaurentPoly({rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(n)})


def test_add_examples():
    assert v + vi == P((-1, 1), (1, 1))
    assert v + (-1) * v == zero
    assert (v + (-1) * v).pairs() == ()
    assert (one + q) + (q + q * q) == P((0, 1), (1, 2), (2, 1))


def test_mul_examples():
    assert (v + vi) * (v + vi) == P((-2, 1), (0, 2), (2, 1))
    assert P((3, 5), (-2, 1)) * zero == zero
    assert (one + q) * (one - q) == P((0, 1), (2, -1))


def test_bar_examples():
    assert v.bar() == vi
    assert P((0, 1), (1, 1), (3, 1)).bar() == P((0, 1), (-1, 1), (-3, 1))
    a = P((2, 2), (-1, -1))
    assert a.bar().bar() == a


def test_eval_at_one():
    assert (v + v**3).eval_at_one() == 2
    assert zero.eval_at_one() == 0
    assert P((0, 1), (1, 2), (2, 2), (3, 1)).eval_at_one() == 6


def test_is_palindromic():
    assert P((0, 1), (1, 2), (2, 2), (3, 1)).is_palindromic(Fraction(3, 2))
    assert not (one + q).is_palindromic(0)
    assert (one + q).is_palindromic(Fraction(1, 2))
    assert zero.is_palindromic(0)
    assert zero.is_palindromic(Fraction(7, 2))
    with pytest.raises(ValueError):
        one.is_palindromic(Fraction(1, 3))


def test_normalization_and_equality():
    assert LaurentPoly({2: 0, 1: 3}) == P((1, 3))
    assert LaurentPoly([(1, 1), (1, -1)]) == zero
    assert LaurentPoly([(0, 2), (0, 3)]) == LaurentPoly.monomial(0, 5)
    assert one == 1 and zero == 0
    assert hash(P((1, 2))) == hash(LaurentPoly({1: 2}))
    # equal objects hash equally, also across int and LaurentPoly
    assert LaurentPoly.monomial(0, 5) == 5 and hash(LaurentPoly.monomial(0, 5)) == hash(5)
    assert zero == 0 and hash(zero) == hash(0)
    assert hash(LaurentPoly.monomial(0, -1)) == hash(-1)
    assert {5: "a"}.get(LaurentPoly.monomial(0, 5)) == "a"
    assert {LaurentPoly.one(): "b"}.get(1) == "b"
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})


@pytest.mark.parametrize("pairs", [{True: 1}, [(False, 2)], {1: True}, {0.5: 1}, {"1": 1}])
def test_bool_and_non_int_pairs_are_refused(pairs):
    # A bool is an int to isinstance, but prints as JSON true/false; exponents
    # refuse it as coefficients do.
    with pytest.raises(TypeError):
        LaurentPoly(pairs)


def test_pow():
    assert (v + one) ** 0 == one
    assert (v + one) ** 3 == P((0, 1), (1, 3), (2, 3), (3, 1))
    assert v**-2 == P((-2, 1))
    assert LaurentPoly.monomial(1, -1) ** -3 == P((-3, -1))
    with pytest.raises(ValueError):
        (one + v) ** -1


def test_format():
    assert P((0, 1), (1, 2), (2, 2), (3, 1)).format("q") == "1 + 2q + 2q^2 + q^3"
    assert zero.format() == "0"
    assert P((-1, 1), (1, 1)).format() == "v^-1 + v"
    assert P((0, 1), (2, -1)).format("q") == "1 - q^2"
    assert P((0, -2), (1, 1)).format() == "-2 + v"
    assert str(P((1, 1))) == "v"


def test_min_max_exp():
    assert P((-2, 1), (5, 3)).min_exp == -2
    assert P((-2, 1), (5, 3)).max_exp == 5
    with pytest.raises(ValueError):
        zero.min_exp


def test_bool_iter_and_int_operands():
    p = LaurentPoly({1: 2, -1: 1})
    assert p and not LaurentPoly()
    assert list(p) == [(-1, 1), (1, 2)]
    assert LaurentPoly(p) == p  # the copy reads p through __iter__
    assert p + 3 == 3 + p == P((-1, 1), (0, 3), (1, 2))
    assert 3 - p == P((-1, -1), (0, 3), (1, -2))
    assert p * 0 == 0 and not p * 0
    with pytest.raises(ValueError):
        LaurentPoly().max_exp


def test_other_operands_are_refused():
    # A float, a string or a bool is no Laurent polynomial: == answers False, the ring operations TypeError.
    p, one = LaurentPoly({1: 2, -1: 1}), LaurentPoly.one()
    assert (p == 1.5) is False and p != "x"
    assert (one == True) is False and (True == one) is False and (LaurentPoly() == False) is False  # noqa: E712
    assert one == 1 and LaurentPoly() == 0
    ops = [lambda: p + "x", lambda: "x" + p, lambda: p * "x", lambda: p * 1.5, lambda: p ** 1.5]
    for b in (True, False):
        ops += [lambda b=b: p + b, lambda b=b: b + p, lambda b=b: p - b, lambda b=b: b - p, lambda b=b: p * b,
                lambda b=b: b * p, lambda b=b: p ** b, lambda b=b: LaurentPoly.monomial(0, b)]
    for op in ops:
        with pytest.raises(TypeError):
            op()


def test_ring_properties_random():
    rng = random.Random(20250808)
    for _ in range(300):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).bar() == a.bar() * b.bar()
        assert a.bar().bar() == a
        assert (a + b).eval_at_one() == a.eval_at_one() + b.eval_at_one()
        assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()
        assert all(coeff != 0 for _, coeff in (a * b - b * a + a).pairs())

