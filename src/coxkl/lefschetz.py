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
(d, h_{y,x}) class of a pair; D4 has 60 over its 9,817 Bruhat pairs.  A table
by l(x), l(y) and id(h) gives each entry its verdict in one lookup; a class new
to the audit is shape-checked and judged once, and IP_x is summed once per
verdict of a row.  The reports are ``NamedTuple`` records, and those of a
class share its verdict: the same ``poly`` object and flags.

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
from itertools import accumulate
from operator import ge, le
from typing import Iterator, Mapping, NamedTuple, Sequence

from .coxeter import CoxeterSystem, Element
from .hecke import HeckeAlgebra, Raw, _check_row, _class_memo, _entry
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


def _local(h: Mapping[int, int], d: int) -> tuple:
    # The local polynomial of h = h_{y,x}, d = l(x) - l(y), and its palindromic,
    # unimodal and nonneg verdicts.  h is {}, h_{x,x} = 1 or of a KL class, so
    # P(q) - q^d P(1/q) lives on [0, d]; its quotient by 1 - q is its prefix sums.
    p = [0] * (d + 1)
    for i, c in h.items():
        p[(d - i) // 2] = c
    seq = list(accumulate(p[e] - p[d - e] for e in range(d)))
    top, nonneg = seq.index(max(seq)) if seq else 0, min(seq, default=0) >= 0
    unimodal = nonneg and all(map(le, seq[:top], seq[1:])) and all(map(ge, seq[top:], seq[top + 1:]))
    return LaurentPoly._raw({e: c for e, c in enumerate(seq) if c}), seq == seq[::-1], unimodal, nonneg


_UNIT = (0, *_local({0: 1}, 0))  # the verdict of y = x, h_{x,x} = 1


def _table(W: CoxeterSystem) -> tuple[list, dict]:
    # An empty verdict table, {id(h): verdict} per d >= 0 laid out as by
    # hecke._class_memo, and (d, h) by id(verdict).  The memo rows keep each h,
    # and the table each verdict, alive through a call, so no id is reused.
    return _class_memo(W, 0), {id(_UNIT): (0, {0: 1})}


def _row(W: CoxeterSystem, xi: int, row: Raw, table: list, source: dict):
    # The memo row {y: h_{y,x}} of uH(x): its ys in id order, the verdict of
    # each from table and IP_x.  A miss is judged only after a second lookup, as
    # an earlier miss of the row may have stored its class, and only once _entry
    # accepts it.  A row whose unit verdict is not at x alone fails _check_row.
    lengths, lx = W._lengths, W._lengths[xi]
    seen, ys = table[lx], sorted(row)
    verdicts = [seen[lengths[yi]].get(id(row[yi])) for yi in ys]
    counts = Counter(map(id, verdicts))
    if id(None) in counts:
        for k, yi in enumerate(ys):
            if verdicts[k] is None:
                h, slot, d = row[yi], seen[lengths[yi]], lx - lengths[yi]
                if id(h) not in slot:
                    _entry(W, row, yi, xi)
                    slot[id(h)] = v = _UNIT if d == 0 else (d, *_local(h, d))
                    source[id(v)] = (d, h)
                verdicts[k] = slot[id(h)]
        counts = Counter(map(id, verdicts))
    if counts[id(_UNIT)] != 1 or row.get(xi) != {0: 1}:
        _check_row(W, xi, row)
    total: dict[int, int] = {}
    for i, n in counts.items():
        d, h = source[i]
        _acc(total, h, d - 2 * lx, n)  # IP_x(v^-2) = sum of v^-(l(x)+l(y)) h_{y,x}(v)
    return ys, verdicts, LaurentPoly._raw({-e // 2: c for e, c in total.items()})  # v^e is q^(-e/2)


def local_lefschetz_poly(algebra: HeckeAlgebra, y: Element, x: Element) -> LefschetzReport:
    """Build the local Lefschetz polynomial and its three property verdicts."""
    W, d, xi = algebra.system, x.length - y.length, algebra.system._id(x)
    h = _entry(W, algebra._kl_raw(xi), W._id(y), xi)
    return LefschetzReport(y, x, W.format_element(y), W.format_element(x), d, *_local(h, d))


def ih_poincare(algebra: HeckeAlgebra, x: Element) -> LaurentPoly:
    """IP_x(q) = sum over y <= x of q^l(y) * P_{y,x}(q).

    For x the longest element every P is 1 and this is the length generating
    function of the whole group.
    """
    xi = algebra.system._id(x)
    return _row(algebra.system, xi, algebra._kl_raw(xi), *_table(algebra.system))[2]


def lefschetz_audit(algebra: HeckeAlgebra) -> AuditResult:
    """Run the local check on every comparable pair and the global one everywhere."""
    W = algebra.system
    lengths, elements = W._lengths, W.all_elements()
    labels = [W.format_element(el) for el in elements]
    table, new = _table(W), tuple.__new__
    reports, ih_reports = [], []
    for xi, x in enumerate(elements):
        ys, verdicts, ip = _row(W, xi, algebra._kl_raw(xi), *table)
        xlab, lx, c = labels[xi], lengths[xi], ip._c
        reports += [new(LefschetzReport, (elements[yi], x, labels[yi], xlab) + v) for yi, v in zip(ys, verdicts)]
        # Palindromic about l(x)/2, on the doubled centre: coefficient j is that of l(x) - j.
        ih_reports.append(new(IHReport, (x, xlab, ip, all(a == c.get(lx - j, 0) for j, a in c.items()))))
    return AuditResult(reports=tuple(reports), ih_reports=tuple(ih_reports))
