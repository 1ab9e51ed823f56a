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
in one pass over each memoized KL row that ``_check_row`` accepts.  The local
verdict depends only on the (d, h_{y,x}) class of a pair, and in an accepted
row that class is fixed by the pool index of h_{y,x}; D4 has 60 over its
9,817 Bruhat pairs.  A table by pool index gives each entry its verdict in
one lookup, a class new to the audit is judged once, and IP_x, which in an
accepted row depends only on l(x) and the multiset of its pool indices, is
summed and judged once per such key.  The audit keeps the memo's own rows and
one verdict per pool index, and builds a ``LefschetzReport`` for a pair only
when it is read.

>>> from coxkl import CoxeterSystem, HeckeAlgebra
>>> W = CoxeterSystem.from_type("A3")
>>> rep = local_lefschetz_poly(HeckeAlgebra(W), W.identity, W.parse_element("s2s1s3s2"))
>>> rep.d, rep.poly.format("q"), rep.passed
(4, '1 + 2q + 2q^2 + q^3', True)
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import ge, index, le
from typing import Mapping, NamedTuple

from .coxeter import Element
from .hecke import HeckeAlgebra, _dumps
from .laurent import LaurentPoly, _acc

__all__ = ["LefschetzReport", "IHReport", "AuditResult", "local_lefschetz_poly", "ih_poincare", "lefschetz_audit"]


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
        return f"{head}{_dumps(self.y_label)},{_dumps(self.x_label)}{tail}"


def _json_parts(d: int, poly: LaurentPoly, palindromic: bool, unimodal: bool, nonneg: bool) -> tuple[str, str]:
    # A local report's JSON line, keys sorted, split around its two labels:
    # the text before and after y_label,x_label in "pair":[...].
    line = _dumps({"pair": 0, "d": d, "poly": poly.pairs(), "palindromic": palindromic, "unimodal": unimodal,
                   "nonneg": nonneg})
    head, tail = line.split('"pair":0')
    return head + '"pair":[', "]" + tail


class IHReport(NamedTuple):
    """Global Poincare-duality verdict for one Schubert closure; a record."""

    x: Element
    x_label: str
    poly: LaurentPoly
    palindromic: bool

    def to_json_line(self) -> str:
        return _dumps({"x": self.x_label, "ih": self.poly.pairs(), "palindromic": self.palindromic})


class _Reports(Sequence):
    # The LefschetzReport of each pair of an audit, x by x and y by id, each
    # built when read; elements and labels come from the IHReport of each id.
    def __init__(self, rows: tuple, verdicts: dict, ihs: tuple):
        self._rows, self._verdicts, self._ihs, self._ends = rows, verdicts, ihs, [0, *accumulate(map(len, rows))]
        self._ys = lru_cache(1)(lambda xi: sorted(rows[xi]))  # a row read pair by pair is sorted once

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, i):
        k = range(len(self))[index(i)]  # negative indices and IndexError as for a tuple
        xi = bisect_right(self._ends, k) - 1
        return self._make(self._ys(xi)[k - self._ends[xi]], xi)

    def __iter__(self):
        return (self._make(yi, xi) for xi, row in enumerate(self._rows) for yi in sorted(row))

    def _make(self, yi: int, xi: int) -> LefschetzReport:
        y, x = self._ihs[yi], self._ihs[xi]
        return LefschetzReport._make((y.x, x.x, y.x_label, x.x_label) + self._verdicts[self._rows[xi][yi]])


@dataclass(frozen=True)
class AuditResult:
    """The audit of a group, by element id.  ``rows[x]`` is the memo's own row {y: pool index of
    h_{y,x}} of x, shared, not copied; ``verdicts`` maps each of those indices to the (d, poly,
    palindromic, unimodal, nonneg) verdict of its class.  ``reports`` is a read-only sequence
    whose ``LefschetzReport`` records are built when read."""

    rows: tuple[dict[int, int], ...]
    verdicts: dict[int, tuple]
    ih_reports: tuple[IHReport, ...]

    @cached_property
    def reports(self) -> Sequence[LefschetzReport]:
        return _Reports(self.rows, self.verdicts, self.ih_reports)

    @property
    def passed(self) -> bool:
        return all(all(v[2:]) for v in self.verdicts.values()) and all(r.palindromic for r in self.ih_reports)


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


def _row(algebra: HeckeAlgebra, xi: int, sums: dict):
    # The memo row {y: index of h_{y,x}} of uH(x) once _check_row accepts it, the count of each index
    # and (IP_x, whether it is palindromic).  In an accepted row index i fixes d = l(x) - l(y) as _deg[i],
    # None only for h_{x,x} = 1, so IP_x depends only on l(x) and the row's index multiset, its key in sums.
    row, polys, deg = algebra._check_row(xi, algebra._kl_raw(xi)), algebra._polys, algebra._deg
    lx, counts = algebra.system._lengths[xi], Counter(row.values())
    ih = sums.get(key := (lx, frozenset(counts.items())))
    if ih is None:
        total: dict[int, int] = {}
        for i, n in counts.items():
            _acc(total, polys[i], (deg[i] or 0) - 2 * lx, n)  # IP_x(v^-2) = sum of v^-(l(x)+l(y)) h_{y,x}(v)
        c = {-e // 2: a for e, a in total.items()}  # v^e is q^(-e/2)
        # Palindromic about l(x)/2, on the doubled centre: coefficient j is that of l(x) - j.
        ih = sums[key] = (LaurentPoly._raw(c), all(a == c.get(lx - j, 0) for j, a in c.items()))
    return row, counts, ih


def local_lefschetz_poly(algebra: HeckeAlgebra, y: Element, x: Element) -> LefschetzReport:
    """Build the local Lefschetz polynomial and its three property verdicts."""
    W, d = algebra.system, x.length - y.length
    h = algebra._entry(W._id(y), W._id(x))
    return LefschetzReport(y, x, W.format_element(y), W.format_element(x), d, *_local(h, d))


def ih_poincare(algebra: HeckeAlgebra, x: Element) -> LaurentPoly:
    """IP_x(q) = sum over y <= x of q^l(y) * P_{y,x}(q).

    For x the longest element every P is 1 and this is the length generating
    function of the whole group.
    """
    return _row(algebra, algebra.system._id(x), {})[2][0]


def lefschetz_audit(algebra: HeckeAlgebra) -> AuditResult:
    """Run the local check on every comparable pair and the global one everywhere."""
    W, polys, deg, verdicts, sums = algebra.system, algebra._polys, algebra._deg, {}, {}
    rows, ih_reports = [], []
    for xi, (x, label) in enumerate(zip(W.all_elements(), W._labels)):
        row, counts, ih = _row(algebra, xi, sums)
        for i in counts.keys() - verdicts.keys():  # a class new to the audit, judged once
            verdicts[i] = _UNIT if deg[i] is None else (deg[i], *_local(polys[i], deg[i]))
        rows.append(row)
        ih_reports.append(IHReport(x, label, *ih))
    return AuditResult(tuple(rows), verdicts, tuple(ih_reports))
