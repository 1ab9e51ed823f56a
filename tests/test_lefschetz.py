import json
from fractions import Fraction

import pytest

from coxkl.coxeter import CoxeterSystem
from coxkl.hecke import HeckeAlgebra, MalformedKL, _check_row
from coxkl.laurent import LaurentPoly
from coxkl.lefschetz import _json_lines, ih_poincare, lefschetz_audit, local_lefschetz_poly

one = LaurentPoly.one()
q = LaurentPoly.monomial(1)


def local_poly_prefix_sums(algebra, y, x):
    """Second route to the local polynomial: (P - q^d P(1/q)) has the
    quotient by (1 - q) whose coefficients are its prefix sums."""
    d = x.length - y.length
    P = algebra.kl_polynomial(y, x)
    num = P - P.bar().shift(d)
    if num.is_zero:
        return LaurentPoly.zero()
    out = {}
    acc = 0
    for e in range(0, num.max_exp + 1):
        acc += num.coeff(e)
        if acc:
            out[e] = acc
    assert acc == 0, "numerator must vanish at q = 1"
    return LaurentPoly(out)


def test_local_lefschetz_examples(system, algebra):
    W, A = system("A2"), algebra("A2")
    x = W.parse_element("sts")
    rep = local_lefschetz_poly(A, x, x)
    assert rep.poly == 0 and rep.passed and rep.d == 0

    rep = local_lefschetz_poly(A, W.parse_element("st"), x)
    assert rep.poly == one and rep.d == 1 and rep.passed

    W3, A3 = system("A3"), algebra("A3")
    x3 = W3.parse_element("s2s1s3s2")
    anchor = local_lefschetz_poly(A3, W3.identity, x3)
    assert anchor.d == 4
    assert anchor.poly == one + 2 * q + 2 * q**2 + q**3
    assert anchor.palindromic and anchor.unimodal and anchor.nonneg

    rep3 = local_lefschetz_poly(A3, W3.parse_element("s2"), x3)
    assert rep3.d == 3
    assert rep3.poly == one + 2 * q + q**2
    assert rep3.poly.max_exp == rep3.d - 1
    assert rep3.palindromic and rep3.unimodal and rep3.nonneg


def test_local_lefschetz_incomparable_pair(system, algebra):
    W, A = system("A2"), algebra("A2")
    rep = local_lefschetz_poly(A, W.parse_element("st"), W.parse_element("ts"))
    assert rep.poly == 0 and rep.passed


@pytest.mark.parametrize("code", ["A3", "B2"])
def test_local_lefschetz_against_prefix_sums(code, system, algebra):
    W, A = system(code), algebra(code)
    for x in W.all_elements():
        for y in W.all_elements():
            rep = local_lefschetz_poly(A, y, x)
            assert rep.poly == local_poly_prefix_sums(A, y, x)
            if W.bruhat_leq(y, x) and y != x:
                assert rep.poly.coeff(0) == 1
                assert rep.poly.max_exp == rep.d - 1


def test_ih_poincare_examples(system, algebra):
    W, A = system("A2"), algebra("A2")
    assert ih_poincare(A, W.identity) == one
    assert ih_poincare(A, W.longest_element()) == LaurentPoly({0: 1, 1: 2, 2: 2, 3: 1})
    W3, A3 = system("A3"), algebra("A3")
    assert ih_poincare(A3, W3.longest_element()) == LaurentPoly(
        {0: 1, 1: 3, 2: 5, 3: 6, 4: 5, 5: 3, 6: 1}
    )


@pytest.mark.parametrize("code", ["A3", "B2"])
def test_ih_poincare_properties(code, system, algebra):
    W, A = system(code), algebra(code)
    # at the top element: the length generating function, by direct count
    lengths = {}
    for el in W.all_elements():
        lengths[el.length] = lengths.get(el.length, 0) + 1
    assert ih_poincare(A, W.longest_element()) == LaurentPoly(lengths)
    for x in W.all_elements():
        p = ih_poincare(A, x)
        assert p.coeff(0) == 1
        assert p.is_palindromic(Fraction(x.length, 2))
        assert p.eval_at_one() == sum(
            A.kl_polynomial(y, x).eval_at_one()
            for y in W.all_elements()
            if W.bruhat_leq(y, x)
        )


@pytest.mark.parametrize(
    "code,degrees",
    [("A3", (2, 3, 4)), ("B2", (2, 4)), ("A4", (2, 3, 4, 5)), ("H3", (2, 6, 10))],
)
def test_poincare_product_formula(code, degrees, system):
    # ih_poincare at the top element is the length generating function, which
    # factors as the product of q-integers [d] over the fundamental degrees.
    from coxkl.hecke import HeckeAlgebra

    W = system(code)
    A = HeckeAlgebra(W)
    expect = one
    for d in degrees:
        expect = expect * LaurentPoly({i: 1 for i in range(d)})
    assert ih_poincare(A, W.longest_element()) == expect


def test_audit_a1(system):
    from coxkl.hecke import HeckeAlgebra

    A = HeckeAlgebra(system("A1"))
    result = lefschetz_audit(A)
    assert len(result.reports) == 3  # (e,e), (e,s), (s,s)
    assert len(result.ih_reports) == 2
    assert result.passed


@pytest.mark.parametrize("code", ["A3", "B2", "H3"])
def test_audit_passes(code, algebra):
    result = lefschetz_audit(algebra(code))
    assert result.passed
    W = algebra(code).system
    comparable = sum(
        1 for x in W.all_elements() for y in W.all_elements() if W.bruhat_leq(y, x)
    )
    assert len(result.reports) == comparable
    assert len(result.ih_reports) == W.order


REFEREE_MATRICES = {
    "A1xB2": [[1, 2, 2], [2, 1, 4], [2, 4, 1]],
    "D4 reordered": [[1, 3, 3, 3], [3, 1, 2, 2], [3, 2, 1, 2], [3, 2, 2, 1]],
}


@pytest.mark.parametrize("code", ["A3", "B3", "H3", "D4", "A1xB2", "D4 reordered"])
def test_audit_matches_per_pair_referee(code, algebra):
    # The audit shares one verdict between pairs with equal (h, d) and sums
    # each IP_x once per (d, h) class of its row, testing its palindromy on
    # the doubled centre; the per-pair functions and the public predicate
    # referee each report.
    A = HeckeAlgebra(CoxeterSystem(REFEREE_MATRICES[code])) if code in REFEREE_MATRICES else algebra(code)
    W = A.system
    result = lefschetz_audit(A)
    assert [(r.y, r.x) for r in result.reports] == [
        (y, x) for x in W.all_elements() for y in A.kl_element(x).support()
    ]
    for rep in result.reports:
        assert rep == local_lefschetz_poly(A, rep.y, rep.x)
    assert [r.x for r in result.ih_reports] == list(W.all_elements())
    for ihr in result.ih_reports:
        poly = ih_poincare(A, ihr.x)
        assert (ihr.x_label, ihr.poly, ihr.palindromic) == (
            W.format_element(ihr.x), poly, poly.is_palindromic(Fraction(ihr.x.length, 2))
        )


def test_audit_flags_a_non_palindromic_ih_series(system):
    # h(e, s2s1s3s2) = 3v^2 + v^4 keeps the KL shape, so the row is read, but
    # IP_x is no longer palindromic about l(x)/2 = 2: the audit's flag agrees
    # with is_palindromic on it, and the audit fails.
    W = system("A3")
    A = HeckeAlgebra(W)
    A.kl_table()
    x = W.parse_element("s2s1s3s2")
    A._h[W._id(x)][W._id(W.identity)] = {2: 3, 4: 1}
    result = lefschetz_audit(A)
    ihr = result.ih_reports[W._id(x)]
    assert ihr.x == x and ihr.poly == ih_poincare(A, x)
    assert ihr.palindromic is ihr.poly.is_palindromic(2) is False
    assert not result.passed


@pytest.mark.parametrize(
    "x, y, h",
    [
        ("sts", "e", {2: 7}),  # wrong parity for l(x) - l(y) = 3
        ("sts", "e", {5: 1}),  # above l(x) - l(y)
        ("st", "s", {0: 1}),  # not in v*Z[v]
        ("st", "s", {}),  # a stored entry is never zero
        ("s", "st", {1: 1}),  # y longer than x, though v fits l(y) - l(x)
        ("sts", "sts", {0: 2}),  # not unitriangular
        ("st", "ts", "h_xx"),  # y of length l(x) sharing x's pooled h_{x,x}
        ("st", "e", {2: 5}),  # degree and parity fit, but P_{e,st}(0) = 5
        ("st", "e", "h_es"),  # the pooled h_{e,s} = v, verified at d = 1 only
    ],
)
def test_audit_and_ih_refuse_what_check_row_refuses(system, x, y, h):
    # The audit and ih_poincare shape-check a row once per (d, h) class, not
    # per entry.  They must refuse every row _check_row refuses, also the one
    # whose y of length l(x) falls into the class of h_{x,x} = 1.  _check_row
    # refuses it with or without the algebra's memo of verified classes, full
    # after the table, and a refused class is never remembered as verified.
    W = system("A2")
    A = HeckeAlgebra(W)
    A.kl_table()
    xi, yi = W._id(W.parse_element(x)), W._id(W.parse_element(y))
    row = A._h[xi]
    if isinstance(h, str):
        h = {"h_xx": row[xi], "h_es": A._h[W._id(W.parse_element("s"))][0]}[h]
    row[yi] = h
    for memo in (None, A._checked, A._checked):
        with pytest.raises(MalformedKL):
            _check_row(W, xi, row, memo)
    with pytest.raises(MalformedKL):
        lefschetz_audit(A)
    with pytest.raises(MalformedKL):
        ih_poincare(A, W.parse_element(x))


def test_report_json_lines(system, algebra):
    W, A = system("A2"), algebra("A2")
    rep = local_lefschetz_poly(A, W.identity, W.parse_element("sts"))
    data = json.loads(rep.to_json_line())
    assert data["pair"] == ["e", "sts"]
    assert data["d"] == 3
    assert data["poly"] == [[0, 1], [1, 1], [2, 1]]
    assert data["palindromic"] and data["unimodal"] and data["nonneg"]

    result = lefschetz_audit(A)
    line = result.ih_reports[-1].to_json_line()
    parsed = json.loads(line)
    assert parsed["x"] == "sts"
    assert parsed["palindromic"]


def test_json_lines_match_one_dumps_per_report():
    # The audit's JSON lines splice each pair into its verdict's line; they
    # must equal one json.dumps per report, also for labels JSON escapes.
    W = CoxeterSystem([[1, 3, 2], [3, 1, 4], [2, 4, 1]], ["\u03c3", 'b"', "c\\"])
    result = lefschetz_audit(HeckeAlgebra(W))
    expect = [
        json.dumps(
            {"pair": [r.y_label, r.x_label], "d": r.d, "poly": r.poly.pairs(), "palindromic": r.palindromic,
             "unimodal": r.unimodal, "nonneg": r.nonneg},
            sort_keys=True,
            separators=(",", ":"),
        )
        for r in result.reports
    ]
    assert list(_json_lines(result.reports)) == expect
    assert [r.to_json_line() for r in result.reports] == expect
    assert any("\\u03c3" in line and '\\"' in line for line in expect)


def test_reports_are_immutable_records(system, algebra):
    W, A = system("A2"), algebra("A2")
    result = lefschetz_audit(A)
    for rep in (result.reports[0], result.ih_reports[0], local_lefschetz_poly(A, W.identity, W.identity)):
        with pytest.raises(AttributeError):
            rep.poly = one
        with pytest.raises(AttributeError):
            rep.x_label = "t"
    rep = local_lefschetz_poly(A, W.identity, W.parse_element("sts"))
    assert rep == local_lefschetz_poly(A, W.identity, W.parse_element("sts"))
    assert rep._fields[:5] == ("y", "x", "y_label", "x_label", "d")


def test_audit_reports_share_one_poly_per_verdict(system):
    # One verdict, and so one poly object, per distinct (d, h) of the memo:
    # 121 over the 98,407 reports of A5.
    W = system("A5")
    A = HeckeAlgebra(W)
    result = lefschetz_audit(A)
    lengths = W._lengths
    keys = {(lengths[xi] - lengths[yi], id(h)) for xi, row in A._h.items() for yi, h in row.items()}
    assert len(result.reports) == 98407
    assert len({id(r.poly) for r in result.reports}) == len(keys) == 121
    # The algebra's memo of verified classes holds each of them but the unit
    # h_{x,x} = 1 at d = 0, and holds each once.
    checked = {(lx - ly, i) for lx, maps in enumerate(A._checked) for ly, m in enumerate(maps) for i in m}
    assert checked == keys - {(0, id(A._h[0][0]))} and len(checked) == 120
    assert sum(map(len, {id(m): m for maps in A._checked for m in maps}.values())) == 120
