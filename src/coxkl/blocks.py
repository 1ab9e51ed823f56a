"""
Singular-block combinatorics and graded Hom-dimension tables.

A block datum is a pair: an ambient finite Coxeter system W (the integral
Weyl group of the block) and a generator subset I whose parabolic subgroup
W_I is the stabilizer of the weight.  Cosets x*W_I are addressed by their
longest representatives; the highest weights attached to a block are labeled
symbolically by those cosets (no weight coordinates are ever computed).

The two deliverables are

* ``andersen_dims``: the dimensions of the graded pieces of the Andersen
  filtration on Hom(Verma, tilting) for a pair of cosets, which equal the
  coefficients h^i_{y,x} of the KL family for the longest representatives,
  and
* ``equivariant_hom_series``: the torus-equivariant graded Hom dimensions,
  obtained by convolving those coefficients with the Hilbert series of a
  polynomial ring whose generators sit in degree 2.

``make_block`` keeps two elements per coset, its min and max reps, found by
one scan of W in max-rep order.  On a warm KL table the readouts cost what
the block needs, not what W needs.  ``andersen_table`` spends min(|row of x|,
number of cosets up to x) steps on the column of x and keeps it as checked
{row position: pool index}, the one form its text, csv and json render from; and
``equivariant_hom_series`` spends |dims| * n_max / 2 incremental binomials.

>>> from coxkl import CoxeterSystem, HeckeAlgebra
>>> W = CoxeterSystem.from_type("A2")
>>> andersen_table(make_block(W, [W.generator_index("t")]), HeckeAlgebra(W)).to_csv().split()
['row,col,i,dim', 't,t,0,1', 't,st,1,1', 't,sts,2,1', 'st,st,0,1', 'st,sts,1,1', 'sts,sts,0,1']
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

from .coxeter import Coset, CoxeterError, CoxeterSystem, Element
from .hecke import _ONE, HeckeAlgebra, _dumps, _same_system

__all__ = [
    "BlockData",
    "DimTable",
    "make_block",
    "andersen_dims",
    "total_hom_dim",
    "andersen_table",
    "equivariant_hom_series",
]


@dataclass(frozen=True)
class BlockData:
    """A singular block: ambient system, parabolic subset and its cosets.

    ``cosets`` lists each coset once, in the order of its max rep's id, i.e. (length,
    word); that is every table's row/column order, and ``coset_of`` and ``andersen_table``
    refuse a block out of it with ``CoxeterError``.  The readouts raise it too on a coset
    whose max rep some s in I takes up, such as a coset of another partition.
    """

    system: CoxeterSystem
    parabolic: tuple[int, ...]
    w_long: Element
    w_iota: Element
    cosets: tuple[Coset, ...]

    def coset_of(self, a: Element) -> Coset:
        """The coset a*W_I containing a, found by bisecting on its max rep's id;
        ``CoxeterError`` if ``cosets`` lacks it at its place in that order."""
        W = self.system
        top = W.coset_max_rep(self.parabolic, a)
        k = bisect_left(self.cosets, W._id(top), key=lambda c: W._id(c.max_rep))
        if k == len(self.cosets) or self.cosets[k].max_rep != top:
            raise CoxeterError(f"the block lists no coset with max rep {W.format_element(top)} in max-rep order")
        return self.cosets[k]

    def label(self, c: Coset) -> str:
        """Canonical coset label: the word of the longest representative."""
        return self.system.format_element(c.max_rep)

    def _max_id(self, c: Coset) -> int:
        # The id of c's max rep, refused when some s in I is an ascent of it.
        W = self.system
        i = W._id(c.max_rep)
        up = W._right[i]
        for s in self.parabolic:  # a plain loop: any() over a generator tripled the check
            if up[s] > i:
                raise CoxeterError(f"{W.format_element(c.max_rep)} is not the max rep of a coset of this block")
        return i


def make_block(system: CoxeterSystem, parabolic: Iterable[int]) -> BlockData:
    """Assemble the block datum for (W, I)."""
    I = system._check_subset(parabolic)
    return BlockData(system, I, system.longest_element(), system.longest_element(I), system._cosets(I))


def andersen_dims(block: BlockData, algebra: HeckeAlgebra, ybar: Coset, xbar: Coset) -> dict[int, int]:
    """Graded dimensions {i: dim} of the filtration subquotients for a pair.

    Equals {i: h^i_{y,x}} with y, x the longest coset representatives, i
    ascending; the map is empty when y is not below x in the Bruhat order.
    A corrupt entry raises ``MalformedKL``.  The algebra may be over the
    block's system or an equal one (same matrix and generator names).
    """
    if not _same_system(algebra.system, block.system):
        raise CoxeterError("algebra and block live over different systems")
    return dict(sorted(algebra._entry(block._max_id(ybar), block._max_id(xbar)).items()))


def total_hom_dim(block: BlockData, algebra: HeckeAlgebra, ybar: Coset, xbar: Coset) -> int:
    """Total Hom dimension: sum over i of the graded dimensions, = P_{y,x}(1)."""
    return sum(andersen_dims(block, algebra, ybar, xbar).values())


class _Cells(Mapping):
    """An ``andersen_table``'s cells by (row label, column label), kept as each column's
    {row position: pool index}.  A read hands out fresh {i: dim} dicts, shared by equal cells within one ``items()``."""

    def __init__(self, labels: tuple[str, ...], cols: list[dict[int, int]], polys: list[dict[int, int]]):
        self._labels, self._cols, self._polys, self._at = labels, cols, polys, dict(zip(labels, range(len(labels))))

    def __len__(self) -> int:
        return sum(map(len, self._cols))

    def __iter__(self):
        return (key for key, _ in self.items())

    def __getitem__(self, key: tuple[str, str]) -> dict[int, int]:
        if not (isinstance(key, tuple) and len(key) == 2):  # as a dict keyed by label pairs answers
            raise KeyError(key)
        return dict(sorted(self._polys[self._cols[self._at[key[1]]][self._at[key[0]]]].items()))

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def items(self):
        labels, polys = self._labels, self._polys
        copies = {i: dict(sorted(polys[i].items())) for i in set().union(*map(dict.values, self._cols))}
        for c, col in zip(labels, self._cols):
            for p in sorted(col):  # by position, whatever order the memo row listed them in
                yield (labels[p], c), copies[col[p]]


@dataclass(frozen=True)
class DimTable:
    """A coset-by-coset table of graded dimension maps, as ``andersen_table`` builds it.

    ``cells`` maps (row label, column label) to fresh {i: dim} copies, zero cells omitted.
    It keeps each column's {row position: pool index}, the one form all three renderers read
    (other cells raise ``TypeError``).  Labels are the words of the longest coset
    representatives; ``display_names`` carries the weight names.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    display_names: tuple[str, ...]
    cells: Mapping[tuple[str, str], dict[int, int]]
    caption: str

    def __post_init__(self):
        if not (isinstance(self.cells, _Cells) and self.cells._labels == self.row_labels == self.col_labels):
            raise TypeError("a DimTable's cells are the positional columns andersen_table builds over its labels")

    def _rows(self, fmt, order=None) -> tuple[list[dict[int, int]], list[dict[int, int]], dict]:
        # Each column's {row position: pool index}, each row's {column position: pool index} filled
        # in ``order`` of the columns (default: theirs), and fmt of each distinct cell's sorted items.
        cols, polys = self.cells._cols, self.cells._polys
        rows: list[dict[int, int]] = [{} for _ in self.row_labels]
        for j in range(len(cols)) if order is None else order:
            for p, k in cols[j].items():
                rows[p][j] = k
        return cols, rows, {k: fmt(sorted(polys[k].items())) for k in set().union(*map(dict.values, cols))}

    def to_json(self) -> str:
        # What _dumps writes for {"caption", "cells": {"r,c": {str(i): n}}, "cols", "display_names", "rows"}.
        # Labels hold no comma, so the keys "r,c" sort by r + "," and then by c: rows and columns sorted once.
        rs, cs = self.row_labels, self.col_labels
        by_row, by_col = sorted(range(len(rs)), key=lambda p: rs[p] + ","), sorted(range(len(cs)), key=cs.__getitem__)
        _, rows, cells = self._rows(lambda items: _dumps({str(i): n for i, n in items}), by_col)
        heads, tails = [_dumps(r + ",")[:-1] for r in rs], [_dumps(c)[1:] + ":" for c in cs]
        body = ",".join([heads[p] + tails[j] + cells[k] for p in by_row for j, k in rows[p].items()])
        return (
            f'{{"caption":{_dumps(self.caption)},"cells":{{{body}}},"cols":{_dumps(cs)},'
            f'"display_names":{_dumps(self.display_names)},"rows":{_dumps(rs)}}}'
        )

    def to_csv(self) -> str:
        _, rows, tails = self._rows(lambda items: ["", *(f",{i},{n}" for i, n in items)])
        out = ["row,col,i,dim"]
        for r, row in zip(self.row_labels, rows):
            for j, k in row.items():  # "\nr,c" before each ",i,dim" of the cell
                out.append(f"\n{r},{self.col_labels[j]}".join(tails[k]))
        return "".join(out) + "\n"

    def to_text(self) -> str:
        cols, rows, text = self._rows(lambda items: "{" + ",".join(f"{i}:{n}" for i, n in items) + "}")
        widths = [max(len(c), 1, *(len(text[k]) for k in col.values())) for c, col in zip(self.col_labels, cols)]
        head_w = max((len(r) for r in self.row_labels), default=1)
        blank = [".".rjust(w) for w in widths]  # an empty row
        out = [self.caption, " ".join([" " * head_w] + [c.rjust(w) for c, w in zip(self.col_labels, widths)])]
        for r, row in zip(self.row_labels, rows):
            line = blank.copy()
            for j, k in row.items():
                line[j] = text[k].rjust(widths[j])
            out.append(" ".join([r.ljust(head_w), *line]))
        return "\n".join(out) + "\n"


def andersen_table(block: BlockData, algebra: HeckeAlgebra) -> DimTable:
    """The full graded dimension table, read off one KL row per column.

    The block must list its cosets once each in max-rep id order, else ``CoxeterError``.
    Every y <= x has a smaller id than x, so the column of the k-th coset meets only the
    first k + 1: it walks the KL row of x when the row has at most k + 1 entries, else
    looks those k + 1 ids up in it.  It keeps {row position: pool index}, checked as by
    ``andersen_dims`` (``MalformedKL``); the table's cells and renderers read that form.
    """
    if not _same_system(algebra.system, block.system):
        raise CoxeterError("algebra and block live over different systems")
    ids = [block._max_id(c) for c in block.cosets]
    if ids != sorted(set(ids)):
        raise CoxeterError("the block must list its cosets once each, in max-rep order")
    labels = tuple(map(block.system._labels.__getitem__, ids))
    names = tuple(f"lambda[{r}]" for r in labels)
    caption = (
        "graded dims of Hom(Delta(lambda[row]), K(lambda[col])); "
        "lambda[x] = w_long.x.lambda for the coset with longest representative x"
    )
    at = {xi: p for p, xi in enumerate(ids)}  # max-rep id -> position
    cols: list[dict[int, int]] = []
    check, deg, lengths = algebra._check_row, algebra._deg, block.system._lengths
    for k, xi in enumerate(ids):
        row, col, lx = algebra._kl_raw(xi), {}, lengths[xi]
        if row.get(xi) != _ONE:
            check(xi, row)
        if len(row) <= k + 1:
            for yi, i in row.items():
                p = at.get(yi)
                if p is not None:
                    if deg[i] != lx - lengths[yi] and yi != xi:
                        check(xi, {xi: _ONE, yi: i})
                    col[p] = i
        else:
            for p, yi in enumerate(islice(ids, k + 1)):
                i = row.get(yi)
                if i is not None:
                    if deg[i] != lx - lengths[yi] and yi != xi:
                        check(xi, {xi: _ONE, yi: i})
                    col[p] = i
        cols.append(col)
    return DimTable(labels, labels, names, _Cells(labels, cols, algebra._polys), caption)


def equivariant_hom_series(
    block: BlockData,
    algebra: HeckeAlgebra,
    ybar: Coset,
    xbar: Coset,
    n_max: int,
    rank: int | None = None,
) -> list[int]:
    """Equivariant graded Hom dimensions dims[0..n_max] for a coset pair.

    dims[n] = sum_i h^i_{y,x} * M(rank, n - i), where M(r, k) counts degree-k
    monomials in r polynomial generators of degree 2.  ``rank`` defaults to
    the rank of the ambient system; rank 1 models the one-parameter torus
    specialization.
    """
    if rank is None:
        rank = block.system.rank
    for name, n, low in (("rank", rank, 1), ("n_max", n_max, 0)):
        if isinstance(n, bool) or not isinstance(n, int):  # a float or a bool would leak into the exact counts
            raise TypeError(f"{name} must be an int, got {n!r}")
        if n < low:
            raise ValueError(f"{name} must be >= {low}, got {n}")
    out = [0] * (n_max + 1)
    for i, c in andersen_dims(block, algebra, ybar, xbar).items():
        # c * M(rank, 2j) at n = i + 2j, with M(r, 2j + 2) = M(r, 2j) * (j + r) / (j + 1) exactly.
        m = c
        for j, n in enumerate(range(i, n_max + 1, 2)):
            out[n] += m
            m = m * (j + rank) // (j + 1)
    return out
