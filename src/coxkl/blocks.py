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

``make_block`` costs one step per element of W and a sort of the cosets by
the ids of their max reps.  On a warm KL table the two deliverables cost
what the block needs, not what W needs.  ``andersen_table`` spends
min(|row of x|, number of cosets up to x) steps on the column of x, and
``equivariant_hom_series`` |dims| * n_max / 2 steps, one incremental
binomial each.

>>> from coxkl import CoxeterSystem, HeckeAlgebra
>>> W = CoxeterSystem.from_type("A2")
>>> andersen_table(make_block(W, [W.generator_index("t")]), HeckeAlgebra(W)).to_csv().split()
['row,col,i,dim', 't,t,0,1', 't,st,1,1', 't,sts,2,1', 'st,st,0,1', 'st,sts,1,1', 'sts,sts,0,1']
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

from .coxeter import Coset, CoxeterError, CoxeterSystem, Element
from .hecke import HeckeAlgebra, _dumps, _same_system

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

    ``cosets`` is sorted by the id of the maximal representatives, which is
    their (length, word) order; it fixes the row/column order of every table
    built from the block.  The readouts raise ``CoxeterError`` on a coset whose
    max rep some s in I takes up, such as a coset of another partition.
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


_weight_name = "lambda[{}]".format


def make_block(system: CoxeterSystem, parabolic: Iterable[int]) -> BlockData:
    """Assemble the block datum for (W, I)."""
    I = system._check_subset(parabolic)
    w_long, w_iota = system.longest_element(), system.longest_element(I)
    return BlockData(system, I, w_long, w_iota, system._cosets(I, by_max_rep=True))


def andersen_dims(
    block: BlockData, algebra: HeckeAlgebra, ybar: Coset, xbar: Coset
) -> dict[int, int]:
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


@dataclass(frozen=True)
class DimTable:
    """A coset-by-coset table of graded dimension maps.

    ``cells`` maps (row label, column label) to {i: dim}, with zero cells
    omitted; equal cells of one ``andersen_table`` may share a dict.  Labels
    are the words of the longest coset representatives; ``display_names``
    carries the symbolic weight names for captions.  Each renderer's Python
    work is linear in the nonzero cells and formats each distinct cell dict
    once; text adds one padded ``.`` per empty cell, copied in C.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    display_names: tuple[str, ...]
    cells: dict[tuple[str, str], dict[int, int]]
    caption: str

    def _rows(self) -> dict[str, dict[int, dict[int, int]]]:
        # The nonzero cells inside the labels as {row label: {column position: cell}}.
        pos: dict[str, list[int]] = {}
        for j, c in enumerate(self.col_labels):
            pos.setdefault(c, []).append(j)
        rows: dict[str, dict[int, dict[int, int]]] = {r: {} for r in self.row_labels}
        for (r, c), cell in self.cells.items():
            if cell and r in rows:
                for j in pos.get(c, ()):
                    rows[r][j] = cell
        return rows

    def to_json(self) -> str:
        # What _dumps writes for {"caption", "cells": {"r,c": {str(i): n}}, "cols",
        # "display_names", "rows"}, with each distinct cell dumped once and the cells joined here.
        enc = {id(cell): cell for cell in self.cells.values()}
        enc = {k: _dumps({str(i): n for i, n in cell.items()}) for k, cell in enc.items()}
        cells = {f"{r},{c}": enc[id(cell)] for (r, c), cell in self.cells.items()}
        if len(cells) < len(self.cells):  # ("a,b", "c") and ("a", "b,c") print alike: the larger wins
            cells = {f"{r},{c}": enc[id(self.cells[r, c])] for r, c in sorted(self.cells)}
        body = ",".join([f"{_dumps(k)}:{cells[k]}" for k in sorted(cells)])
        return (
            f'{{"caption":{_dumps(self.caption)},"cells":{{{body}}},"cols":{_dumps(self.col_labels)},'
            f'"display_names":{_dumps(self.display_names)},"rows":{_dumps(self.row_labels)}}}'
        )

    def to_csv(self) -> str:
        rows = self._rows()
        tails = {id(cell): cell for row in rows.values() for cell in row.values()}
        tails = {k: ["", *(f",{i},{n}" for i, n in sorted(cell.items()))] for k, cell in tails.items()}
        out = ["row,col,i,dim"]
        for r in self.row_labels:
            row = rows[r]
            for j in sorted(row):  # "\nr,c" before each ",i,dim" of the cell
                out.append(f"\n{r},{self.col_labels[j]}".join(tails[id(row[j])]))
        return "".join(out) + "\n"

    def to_text(self) -> str:
        rows = self._rows()
        text = {id(cell): cell for row in rows.values() for cell in row.values()}
        text = {k: "{" + ",".join(f"{i}:{n}" for i, n in sorted(cell.items())) + "}" for k, cell in text.items()}
        widths = [max(len(c), 1) for c in self.col_labels]
        for row in rows.values():
            for j, cell in row.items():
                if len(text[id(cell)]) > widths[j]:
                    widths[j] = len(text[id(cell)])
        head_w = max((len(r) for r in self.row_labels), default=1)
        blank = [".".rjust(w) for w in widths]  # an empty row
        out = [self.caption, " ".join([" " * head_w] + [c.rjust(w) for c, w in zip(self.col_labels, widths)])]
        for r in self.row_labels:
            line = blank.copy()
            for j, cell in rows[r].items():
                line[j] = text[id(cell)].rjust(widths[j])
            out.append(" ".join([r.ljust(head_w), *line]))
        return "\n".join(out) + "\n"


def andersen_table(block: BlockData, algebra: HeckeAlgebra) -> DimTable:
    """The full graded dimension table, read off one KL row per column.

    Every y <= x has a smaller id than x, so with the max reps sorted by id
    the column at position k meets only the first k + 1 of them: it walks
    the KL row of x when the row has at most k + 1 entries, and otherwise
    looks those k + 1 ids up in it.
    """
    if not _same_system(algebra.system, block.system):
        raise CoxeterError("algebra and block live over different systems")
    ids = [block._max_id(c) for c in block.cosets]
    labels = tuple(map(block.system._labels.__getitem__, ids))
    names = tuple(map(_weight_name, labels))
    reps = sorted(zip(ids, labels))
    label_of = dict(reps)
    cells: dict[tuple[str, str], dict[int, int]] = {}
    copies: dict[int, dict[int, int]] = {}  # one copy per pool index
    polys = algebra._polys
    for k, (xi, xlab) in enumerate(reps):
        row = algebra._kl_raw(xi)
        if len(row) <= k + 1:
            for yi, i in row.items():
                ylab = label_of.get(yi)
                if ylab is not None:
                    cell = copies.get(i)
                    if cell is None:
                        cell = copies[i] = dict(sorted(polys[i].items()))
                    cells[(ylab, xlab)] = cell
        else:
            for yi, ylab in islice(reps, k + 1):
                i = row.get(yi)
                if i is not None:
                    cell = copies.get(i)
                    if cell is None:
                        cell = copies[i] = dict(sorted(polys[i].items()))
                    cells[(ylab, xlab)] = cell
    caption = (
        "graded dims of Hom(Delta(lambda[row]), K(lambda[col])); "
        "lambda[x] = w_long.x.lambda for the coset with longest representative x"
    )
    return DimTable(row_labels=labels, col_labels=labels, display_names=names, cells=cells, caption=caption)


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
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    out = [0] * (n_max + 1)
    for i, c in andersen_dims(block, algebra, ybar, xbar).items():
        # c * M(rank, 2j) at n = i + 2j, with M(r, 2j + 2) = M(r, 2j) * (j + r) / (j + 1) exactly.
        m = c
        for j, n in enumerate(range(i, n_max + 1, 2)):
            out[n] += m
            m = m * (j + rank) // (j + 1)
    return out
