"""
Hard-Lefschetz consistency checks on Kazhdan-Lusztig data.

For a Bruhat pair y <= x with d = l(x) - l(y) and P = P_{y,x}(q), the local
Lefschetz polynomial is defined as

    (P(q) - q^d * P(1/q)) / (1 - q),

the graded character of the cokernel of the costalk-into-stalk map along the
cell of y, written as a quotient of Hilbert series of free modules over a
polynomial ring with one degree-2 generator.  For honest intersection
cohomology this cokernel is the (shifted) cohomology of a projective variety
carrying a Lefschetz operator, so the polynomial must have nonnegative
coefficients, be palindromic about (d-1)/2 and be unimodal.  Those three
checks are the executable content here; q tracks cohomological degree 2.

The global companion is the graded Poincare polynomial of a Schubert closure,
IP_x(q) = sum_{y <= x} q^l(y) P_{y,x}(q), which must be palindromic about
l(x)/2.  ``lefschetz_audit`` batch-verifies both families over a whole group
in one pass over each memoized KL row.  The local verdict depends only on the
(d, h_{y,x}) class of a pair, of which a group has few (60 over the 9,817
Bruhat pairs of D4).  A row's classes are counted; each is shape-checked and
summed into IP_x once per row and judged once per group.  The reports are
``NamedTuple`` records, and those of a class share its verdict: the same
``poly`` object and flags.

>>> from coxkl import CoxeterSystem, HeckeAlgebra
>>> W = CoxeterSystem.from_type("A3")
>>> rep = local_lefschetz_poly(HeckeAlgebra(W), W.identity, W.parse_element("s2s1s3s2"))
>>> rep.d, rep.poly.format("q"), rep.passed
(4, '1 + 2q + 2q^2 + q^3', True)
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .coxeter import CoxeterSystem, Element
from .hecke import HeckeAlgebra, Raw, _check_row, _kl_class, _kl_p
from .laurent import LaurentPoly, _acc

__all__ = [
    "LefschetzReport",
    "IHReport",
    "AuditResult",
    "local_lefschetz_poly",
    "ih_poincare",
    "lefschetz_audit",
]


class LefschetzReport(NamedTuple):
    """Outcome of the local check for one ordered pair (y, x).

    ``poly`` is zero exactly when y = x or the pair is incomparable, in
    which case the three verdicts are vacuously true.  A record: immutable,
    equal by fields, and a tuple.
    """

    y: Element
    x: Element
    y_label: str
    x_label: str
    d: int
    poly: LaurentPoly
    palindromic: bool
    unimodal: bool
    nonneg: bool

    @property
    def passed(self) -> bool:
        return self.palindromic and self.unimodal and self.nonneg

    def to_json_line(self) -> str:
        head, tail = _json_parts(*self[4:])
        return f"{head}{json.dumps(self.y_label)},{json.dumps(self.x_label)}{tail}"


def _dumps(value) -> str:
    # The one JSON form of every printed line: keys sorted, no spaces.
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _json_parts(d: int, poly: LaurentPoly, palindromic: bool, unimodal: bool, nonneg: bool) -> tuple[str, str]:
    # A local report's JSON line, keys sorted, split around its two labels:
    # the text before and after y_label,x_label in "pair":[...].
    line = _dumps({"pair": 0, "d": d, "poly": poly.pairs(), "palindromic": palindromic, "unimodal": unimodal,
                   "nonneg": nonneg})
    head, tail = line.split('"pair":0')
    return head + '"pair":[', "]" + tail


def _json_lines(reports: Sequence[LefschetzReport]) -> Iterator[str]:
    # to_json_line() of each report, with one _json_parts per verdict and one
    # json.dumps per label.  As in lefschetz_audit, reports with one verdict
    # share its poly, which the reports keep alive, so (d, id(poly)) names it.
    parts: dict[tuple[int, int], tuple[str, str]] = {}
    quoted: dict[str, str] = {}
    for r in reports:
        key = (r.d, id(r.poly))
        head, tail = parts.get(key) or parts.setdefault(key, _json_parts(*r[4:]))
        y = quoted.get(r.y_label) or quoted.setdefault(r.y_label, json.dumps(r.y_label))
        x = quoted.get(r.x_label) or quoted.setdefault(r.x_label, json.dumps(r.x_label))
        yield f"{head}{y},{x}{tail}"


class IHReport(NamedTuple):
    """Global Poincare-duality verdict for one Schubert closure; a record."""

    x: Element
    x_label: str
    poly: LaurentPoly
    palindromic: bool

    def to_json_line(self) -> str:
        return _dumps({"x": self.x_label, "ih": self.poly.pairs(), "palindromic": self.palindromic})


@dataclass(frozen=True)
class AuditResult:
    reports: tuple[LefschetzReport, ...]
    ih_reports: tuple[IHReport, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports) and all(r.palindromic for r in self.ih_reports)


def _local(h: dict[int, int], d: int, y: Element, x: Element):
    # The local polynomial of the raw h = h_{y,x} with d = l(x) - l(y), and
    # its palindromic, unimodal and nonneg verdicts.
    P = LaurentPoly(_kl_p(h, d, y, x))
    numerator = P - P.bar().shift(d)
    poly = numerator.div_exact(LaurentPoly({0: 1, 1: -1})) if numerator else LaurentPoly.zero()
    nonneg = all(c >= 0 for _, c in poly.pairs())
    return poly, poly.is_palindromic(Fraction(d - 1, 2)), poly.is_unimodal_nonneg(), nonneg


def _classes(W: CoxeterSystem, xi: int, row: Raw):
    # The memo row {y: h_{y,x}} of uH(x) in one pass: its ys in id order, the
    # key (l(x) - l(y), id(h)) of each, {key: h} over its classes (distinct
    # keys) and IP_x.  Each class is checked once by _kl_class, which no
    # class with d <= 0 passes; that of h_{x,x} = 1 must hold x alone, as a y
    # of length l(x) may share its pooled dict.  A row failing here fails
    # _check_row, which names the entry at fault.
    lengths, lx = W._lengths, W._lengths[xi]
    ys = sorted(row)
    keys = [(lx - lengths[yi], id(row[yi])) for yi in ys]
    counts, classes, unit = Counter(keys), dict(zip(keys, map(row.__getitem__, ys))), (0, id(row.get(xi)))
    bad = [k for k, h in classes.items() if not _kl_class(h, k[0])]
    if bad != [unit] or counts[unit] > 1 or row[xi] != {0: 1}:
        _check_row(W, xi, row)
    total: dict[int, int] = {}
    for k, h in classes.items():
        _acc(total, h, k[0] - 2 * lx, counts[k])  # IP_x(v^-2) = sum of v^-(l(x)+l(y)) h_{y,x}(v)
    return ys, keys, classes, LaurentPoly._raw({-e // 2: c for e, c in total.items()})  # v^e is q^(-e/2)


def local_lefschetz_poly(algebra: HeckeAlgebra, y: Element, x: Element) -> LefschetzReport:
    """Build the local Lefschetz polynomial and its three property verdicts."""
    W, d = algebra.system, x.length - y.length
    h = algebra._kl_raw(W._id(x)).get(W._id(y), {})
    return LefschetzReport(y, x, W.format_element(y), W.format_element(x), d, *_local(h, d, y, x))


def ih_poincare(algebra: HeckeAlgebra, x: Element) -> LaurentPoly:
    """IP_x(q) = sum over y <= x of q^l(y) * P_{y,x}(q).

    For x the longest element every P is 1 and this is the length generating
    function of the whole group.
    """
    xi = algebra.system._id(x)
    return _classes(algebra.system, xi, algebra._kl_raw(xi))[3]


def lefschetz_audit(algebra: HeckeAlgebra) -> AuditResult:
    """Run the local check on every comparable pair and the global one everywhere."""
    W = algebra.system
    lengths, elements = W._lengths, W.all_elements()
    labels = [W.format_element(el) for el in elements]
    # (d, id(h)) -> (d, poly, palindromic, unimodal, nonneg).  Equal entries
    # of a pooled memo are one dict; ids of live dicts are unique, so the key
    # is right on any memo.
    memo: dict[tuple[int, int], tuple] = {}
    new = tuple.__new__
    reports, ih_reports = [], []
    for xi, x in enumerate(elements):
        ys, keys, classes, ip = _classes(W, xi, algebra._kl_raw(xi))
        for k, h in classes.items():
            if k not in memo:
                memo[k] = (k[0], *_local(h, k[0], elements[ys[keys.index(k)]], x))
        xlab, lx, c = labels[xi], lengths[xi], ip._c
        reports += [new(LefschetzReport, (elements[yi], x, labels[yi], xlab) + memo[k]) for yi, k in zip(ys, keys)]
        # Palindromic about l(x)/2, on the doubled centre: coefficient j is that of l(x) - j.
        ih_reports.append(new(IHReport, (x, xlab, ip, all(a == c.get(lx - j, 0) for j, a in c.items()))))
    return AuditResult(reports=tuple(reports), ih_reports=tuple(ih_reports))
