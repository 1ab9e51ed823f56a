import gc
import json
from fractions import Fraction

import pytest

from coxkl import lefschetz
from coxkl.blocks import andersen_dims, equivariant_hom_series, make_block, total_hom_dim
from coxkl.coxeter import CoxeterSystem
from coxkl.hecke import HeckeAlgebra, MalformedKL
from coxkl.laurent import LaurentPoly
from coxkl.lefschetz import AuditResult, ih_poincare, lefschetz_audit, local_lefschetz_poly

from oracles import local_lefschetz_oracle

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
    # each IP_x once per verdict of its row, testing its palindromy on the
    # doubled centre; the per-pair functions, the long-division oracle and
    # the public predicate referee each report.
    A = HeckeAlgebra(CoxeterSystem(REFEREE_MATRICES[code])) if code in REFEREE_MATRICES else algebra(code)
    W = A.system
    result = lefschetz_audit(A)
    assert [(r.y, r.x) for r in result.reports] == [
        (y, x) for x in W.all_elements() for y in A.kl_element(x).support()
    ]
    for rep in result.reports:
        assert rep == local_lefschetz_poly(A, rep.y, rep.x)
        assert (dict(rep.poly.pairs()), *rep[6:]) == local_lefschetz_oracle(dict(A.h_poly(rep.y, rep.x).pairs()), rep.d)
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
    A._h[W._id(x)][W._id(W.identity)] = A._intern({2: 3, 4: 1})
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
        ("st", "ts", "h_xx"),  # y of length l(x) sharing the pool index of x's h_{x,x}
        ("st", "e", {2: 5}),  # degree and parity fit, but P_{e,st}(0) = 5
        ("st", "e", "h_es"),  # the pooled h_{e,s} = v, verified at d = 1 only
        ("sts", "e", {1: 0, 3: 1}),  # a zero coefficient: a stored entry has none
    ],
)
def test_audit_and_ih_refuse_what_check_row_refuses(system, x, y, h):
    # The audit and ih_poincare judge a row once per pool index, not per
    # entry.  They must refuse every row _check_row refuses, also the one
    # whose y of length l(x) falls into the class of h_{x,x} = 1.  _check_row
    # refuses it each time it is asked, with the pool full after the table.
    W = system("A2")
    A = HeckeAlgebra(W)
    A.kl_table()
    xi, yi = W._id(W.parse_element(x)), W._id(W.parse_element(y))
    row = A._h[xi]
    if isinstance(h, str):
        row[yi] = {"h_xx": row[xi], "h_es": A._h[W._id(W.parse_element("s"))][0]}[h]
    else:
        row[yi] = A._intern(h)
    for _ in range(2):
        with pytest.raises(MalformedKL):
            A._check_row(xi, row)
    with pytest.raises(MalformedKL):
        lefschetz_audit(A)
    with pytest.raises(MalformedKL):
        ih_poincare(A, W.parse_element(x))
    # The readers of the single entry refuse it too, also through a block.
    ye, xe = W.parse_element(y), W.parse_element(x)
    block = make_block(W, ())
    yc, xc = block.coset_of(ye), block.coset_of(xe)
    for read in (
        lambda: local_lefschetz_poly(A, ye, xe),
        lambda: A.kl_polynomial(ye, xe),
        lambda: A.h_poly(ye, xe),
        lambda: A.mu(ye, xe),
        lambda: andersen_dims(block, A, yc, xc),
        lambda: total_hom_dim(block, A, yc, xc),
        lambda: equivariant_hom_series(block, A, yc, xc, 6),
    ):
        with pytest.raises(MalformedKL):
            read()


@pytest.mark.parametrize(
    "y, h, verdicts",
    [
        ("e", {4: 1, 2: -1}, (True, False, True)),  # P = 1 - q: 1 + q^3, a gap inside
        ("s2", {3: 1, 1: -3}, (True, False, False)),  # P = 1 - 3q: 1 - 2q + q^2
        ("s2", {3: 1, 1: 4}, (True, True, True)),  # P = 1 + 4q: 1 + 5q + q^2
    ],
)
def test_local_verdicts_match_oracle_on_tampered_classes(system, y, h, verdicts):
    # An entry of KL shape with other coefficients gets the verdicts the
    # long-division oracle gives, failing ones included, in the audit and in
    # local_lefschetz_poly.
    W = system("A3")
    A = HeckeAlgebra(W)
    A.kl_table()
    x, y = W.parse_element("s2s1s3s2"), W.parse_element(y)
    A._h[W._id(x)][W._id(y)] = A._intern(h)
    rep = next(r for r in lefschetz_audit(A).reports if (r.y, r.x) == (y, x))
    assert rep == local_lefschetz_poly(A, y, x)
    assert (dict(rep.poly.pairs()), *rep[6:]) == local_lefschetz_oracle(h, rep.d)
    assert rep[6:] == verdicts


@pytest.mark.parametrize("code, classes", [("D4", 59), ("H3", 122)])
def test_audit_judges_each_class_once(code, classes, system, monkeypatch):
    # One audit runs _local once per distinct (d, h) of the memo with d > 0;
    # every other entry reads its verdict from the audit's table, and y = x
    # gets the unit verdict without a call.
    W = system(code)
    A = HeckeAlgebra(W)
    calls, local = [], lefschetz._local

    def counted(h, d):
        calls.append((d, A._pool[tuple(sorted(h.items()))]))
        return local(h, d)

    monkeypatch.setattr(lefschetz, "_local", counted)
    lefschetz_audit(A)
    lengths = W._lengths
    keys = {(lengths[xi] - lengths[yi], i) for xi, row in A._h.items() for yi, i in row.items()}
    assert sorted(calls) == sorted(k for k in keys if k[0] > 0) and len(calls) == classes


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


def test_json_lines_match_one_dumps_per_report(tmp_path, capsys):
    # The CLI audit splices each pair's two labels into the text it made once
    # per verdict.  In every format its local lines must equal the same report
    # formatted on its own, one json.dumps per report for json, also for
    # labels that JSON escapes.
    from coxkl import cli

    path = tmp_path / "escaped.json"
    path.write_text(json.dumps({"rank": 3, "matrix": [[1, 3, 2], [3, 1, 4], [2, 4, 1]],
                                "names": ["\u03c3", 'b"', "c\\"]}))
    reports = list(lefschetz_audit(HeckeAlgebra(CoxeterSystem.from_json_file(path))).reports)
    expect = {
        "json": [
            json.dumps(
                {"pair": [r.y_label, r.x_label], "d": r.d, "poly": r.poly.pairs(), "palindromic": r.palindromic,
                 "unimodal": r.unimodal, "nonneg": r.nonneg},
                sort_keys=True,
                separators=(",", ":"),
            )
            for r in reports
        ],
        "csv": ["kind,y,x,d,palindromic,unimodal,nonneg"]
        + [f"local,{r.y_label},{r.x_label},{r.d},{r.palindromic},{r.unimodal},{r.nonneg}" for r in reports],
        "text": [f"{'ok' if r.passed else 'FAIL'} local ({r.y_label}, {r.x_label}) poly={r.poly.format('q')}"
                 for r in reports],
    }
    for fmt, lines in expect.items():
        assert cli.main(["--matrix", str(path), "--cmd", "audit", "--format", fmt]) == 0
        assert capsys.readouterr().out.splitlines()[: len(lines)] == lines, fmt
    assert [r.to_json_line() for r in reports] == expect["json"]
    assert any("\\u03c3" in line and '\\"' in line for line in expect["json"])


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
    # One verdict object per distinct (d, h) of the memo: the rows of A5 hold
    # 121 over its 98,407 pairs, and the reports read from them share its poly.
    W = system("A5")
    A = HeckeAlgebra(W)
    result = lefschetz_audit(A)
    lengths = W._lengths
    keys = {(lengths[xi] - lengths[yi], i) for xi, row in A._h.items() for yi, i in row.items()}
    verdicts = result.verdicts
    assert len(result.reports) == sum(map(len, result.rows)) == 98407
    assert {(v[0], i) for i, v in verdicts.items()} == keys and len(verdicts) == len(keys) == 121
    assert {id(r.poly) for r in result.reports} == {id(v[1]) for v in verdicts.values()}
    # The class the pool records for each index is the class of each of its
    # entries, for all of them but the unit h_{x,x} = 1 at d = 0, which has none.
    checked = {(A._deg[i], i) for _, i in keys if A._deg[i] is not None}
    assert checked == keys - {(0, A._h[0][0])} and len(checked) == 120
    assert A._deg[A._h[0][0]] is None and len({i for _, i in keys}) == 121


def test_audit_builds_no_report_until_one_is_read(system, monkeypatch):
    # The audit keeps the memo rows and a verdict per pool index: neither it
    # nor len(reports) builds a LefschetzReport, and each record read from
    # reports is built then.
    made = []

    class Counting(lefschetz.LefschetzReport):
        def __new__(cls, *fields):
            made.append(fields)
            return super().__new__(cls, *fields)

        @classmethod
        def _make(cls, fields):
            made.append(fields)
            return super()._make(fields)

    monkeypatch.setattr(lefschetz, "LefschetzReport", Counting)
    W = system("B3")
    result = lefschetz_audit(HeckeAlgebra(W))
    assert len(result.reports) == sum(map(len, result.rows)) and not made
    assert not any(type(o) is Counting for o in gc.get_objects())
    assert isinstance(result, AuditResult) and result.passed and not made
    first = result.reports[0]
    assert type(first) is Counting and len(made) == 1
    assert sum(1 for _ in result.reports) == len(result.reports) == len(made) - 1


def test_audit_rows_and_report_view(system, algebra):
    # The reports are the pairs of the memo rows, x by x and y by id, each
    # with the verdict of its pool index as the fields after its labels.  The
    # view indexes and iterates like the tuple of those reports; it takes no slice.
    W, A = system("H3"), algebra("H3")
    result = lefschetz_audit(A)
    reports = result.reports
    assert result.reports is reports
    expect = tuple(reports)
    assert [r[4:] for r in expect] == [result.verdicts[row[yi]] for row in result.rows for yi in sorted(row)]
    assert [(W._id(r.y), W._id(r.x)) for r in expect] == [(yi, xi) for xi in range(W.order) for yi in sorted(A._h[xi])]
    n = len(reports)
    for k in (0, 1, n // 3, n - 1, -1, -n):
        assert reports[k] == expect[k]
    with pytest.raises(TypeError):
        reports[5:40]
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            reports[k]
    assert reports.index(expect[17]) == 17 and reports.index(expect[-1]) == n - 1 and expect[-1] in reports


def test_audit_rows_are_the_memo_rows(system, monkeypatch):
    # The audit keeps no copy of the table: rows[x] is the memo's own row of
    # x.  ih_poincare reads the degrees off the pool and judges no local class.
    W = system("A5")
    A = HeckeAlgebra(W)
    x = W.longest_element()
    with monkeypatch.context() as m:
        m.setattr(lefschetz, "_local", None)
        ih = ih_poincare(A, x)
    result = lefschetz_audit(A)
    assert ih == result.ih_reports[W._id(x)].poly
    assert len(result.rows) == W.order and all(result.rows[xi] is A._h[xi] for xi in range(W.order))
