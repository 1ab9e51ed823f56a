"""
Independent oracles used by the test suite.

Nothing here calls the code paths under test: group arithmetic is rechecked
through explicit reflection matrices on a root system, Bruhat order through
the subword property, the KL basis and its parabolic analogue for each block
through brute-force linear solves against the bar matrix, and the local
Lefschetz polynomial through long division.  Laurent polynomials are plain
{exp: coeff} dicts with their own little helper functions.  The DimTable
renderers are rechecked against their first, cell-by-cell bodies.
"""
from __future__ import annotations

import json
from itertools import combinations

# ---------------------------------------------------------------------------
# Plain-dict Laurent polynomial helpers
# ---------------------------------------------------------------------------


def padd(a, b, factor=1, shift=0):
    out = dict(a)
    for e, c in b.items():
        k = e + shift
        n = out.get(k, 0) + c * factor
        if n:
            out[k] = n
        else:
            del out[k]
    return out


def pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = e1 + e2
            n = out.get(k, 0) + c1 * c2
            if n:
                out[k] = n
            else:
                del out[k]
    return out


def pbar(a):
    return {-e: c for e, c in a.items()}


def pneg(a):
    return {e: -c for e, c in a.items()}


# ---------------------------------------------------------------------------
# Reflection-matrix model for types A and B
# ---------------------------------------------------------------------------


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _matvec(m, v):
    return tuple(sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(v)))


def reflection_model(code: str):
    """Generator matrices and positive roots for a built-in type A/B code.

    The matrices realize the same bond pattern as the package's built-in
    matrices (type B has its 4-bond between the last two generators).
    """
    letter, n = code[0].upper(), int(code[1:])
    if letter == "A":
        dim = n + 1
        mats = []
        for i in range(n):
            m = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
            m[i][i] = m[i + 1][i + 1] = 0
            m[i][i + 1] = m[i + 1][i] = 1
            mats.append(tuple(tuple(r) for r in m))
        roots = []
        for i in range(dim):
            for j in range(i + 1, dim):
                v = [0] * dim
                v[i], v[j] = 1, -1
                roots.append(tuple(v))
    elif letter == "B":
        dim = n
        mats = []
        for i in range(n - 1):
            m = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
            m[i][i] = m[i + 1][i + 1] = 0
            m[i][i + 1] = m[i + 1][i] = 1
            mats.append(tuple(tuple(r) for r in m))
        m = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
        m[dim - 1][dim - 1] = -1
        mats.append(tuple(tuple(r) for r in m))
        roots = []
        for i in range(dim):
            v = [0] * dim
            v[i] = 1
            roots.append(tuple(v))
        for i in range(dim):
            for j in range(i + 1, dim):
                for sign in (1, -1):
                    v = [0] * dim
                    v[i], v[j] = 1, sign
                    roots.append(tuple(v))
    else:
        raise ValueError(f"no reflection model for {code}")
    return mats, roots


def model_matrix(mats, word):
    n = len(mats[0])
    m = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
    for s in word:
        m = _matmul(m, mats[s])
    return m


def model_length(m, roots):
    """Number of positive roots sent to negative roots by the matrix."""
    posset = set(roots)
    count = 0
    for a in roots:
        img = _matvec(m, a)
        neg = tuple(-x for x in img)
        if neg in posset:
            count += 1
        elif img not in posset:
            raise AssertionError(f"matrix does not permute the roots: {a} -> {img}")
    return count


# ---------------------------------------------------------------------------
# Bruhat order via the subword property
# ---------------------------------------------------------------------------


def subword_leq(W, y, x) -> bool:
    """y <= x iff some length-l(y) subword of x's reduced word equals y."""
    word = x.word
    k = y.length
    if k > len(word):
        return False
    return any(W.element(tuple(word[i] for i in idx)) == y for idx in combinations(range(len(word)), k))


def subword_elements(W, x) -> set:
    """The elements spelled by the subwords of x's reduced word: the set
    {y : subword_leq(W, y, x)}, with each subword evaluated once."""
    word = x.word
    return {
        W.element(tuple(word[i] for i in idx))
        for k in range(len(word) + 1)
        for idx in combinations(range(len(word)), k)
    }


# ---------------------------------------------------------------------------
# Brute-force KL basis: bar-matrix linear solve
# ---------------------------------------------------------------------------


def _hecke_rmul_gen(W, elt, s):
    # elt: {Element: polydict}; right multiplication by H_s in the standard
    # basis with H_s^2 = H_e + (v^-1 - v) H_s.
    out = {}
    for y, p in elt.items():
        t = W.apply_gen(y, s, "right")
        out[t] = padd(out.get(t, {}), p)
        if t.length < y.length:
            q = padd(padd({}, p, shift=-1), p, factor=-1, shift=1)
            out[y] = padd(out.get(y, {}), q)
    return {y: p for y, p in out.items() if p}


def bar_matrix(W):
    """bar(H_y) in the standard basis for every y, as {y: {z: polydict}}."""
    cols = {}
    for y in W.all_elements():
        acc = {W.identity: {0: 1}}
        for s in y.word:
            # acc *= bar(H_s) = H_s + (v - v^-1) H_e
            nxt = _hecke_rmul_gen(W, acc, s)
            for z, p in acc.items():
                q = padd(padd({}, p, shift=1), p, factor=-1, shift=-1)
                nxt[z] = padd(nxt.get(z, {}), q)
            acc = {z: p for z, p in nxt.items() if p}
        cols[y] = acc
    return cols


def kl_basis_bruteforce(W):
    """Solve for every KL basis element by triangular linear algebra.

    For each x, the unknown coefficients c_z (z below x) satisfy
    c_z - bar(c_z) = sum over longer y of bar(c_y) R(z, y), where R is the
    bar matrix; since c_z has only positive exponents, it is the positive
    part of the right-hand side.  No mu-recursion is involved.
    """
    cols = bar_matrix(W)
    by_length = {}
    for el in W.all_elements():
        by_length.setdefault(el.length, []).append(el)
    out = {}
    for x in W.all_elements():
        c = {x: {0: 1}}
        for level in range(x.length - 1, -1, -1):
            for z in by_length[level]:
                g = {}
                for y, cy in c.items():
                    r = cols[y].get(z)
                    if r:
                        g = padd(g, pmul(pbar(cy), r))
                cz = {e: v for e, v in g.items() if e > 0}
                if g != padd(cz, pneg(pbar(cz))):
                    raise AssertionError(f"inconsistent bar solve at ({z}, {x}): {g}")
                if cz:
                    c[z] = cz
        out[x] = c
    return out


def parabolic_kl_bruteforce(W, I, cols=None):
    """The parabolic KL basis of M = H (x)_{H_I} L by a triangular bar solve.

    L is the one-dimensional H_I-module on which each H_t, t in I, acts by
    v^-1 (Deodhar, J. Algebra 111, 1987; Soergel, Represent. Theory 1, 1997,
    section 3).  M has one basis vector M_c per coset c = xW_I, and H_y maps
    to v^-(l(y) - l(y_min)) M_{yW_I}; so bar(M_c) is the image of
    bar(H_{c_min}), one column of ``bar_matrix``.  For each c the unknowns
    n_{d,c} in vZ[v] of the bar-invariant N_c = M_c + sum n_{d,c} M_d are
    solved longest d first, as in ``kl_basis_bruteforce``.  The cosets come
    from closing each element under right multiplication by I.  Returns
    {c_max: {d_max: n_{d,c}}}, with n_{c,c} = 1.
    """
    cols = bar_matrix(W) if cols is None else cols
    coset = {}  # element -> (min rep, max rep) of its coset
    for a in W.all_elements():  # by length, so a coset's first element met is its min rep
        if a not in coset:
            orbit, todo = {a}, [a]
            while todo:
                u = todo.pop()
                for t in I:
                    z = W.apply_gen(u, t, "right")
                    if z not in orbit:
                        orbit.add(z)
                        todo.append(z)
            top = max(orbit, key=lambda z: z.length)
            coset.update((z, (a, top)) for z in orbit)
    mins = sorted({m for m, _ in coset.values()}, key=lambda z: z.length)
    bar_m = {}  # min rep of c -> {min rep of d: coefficient of M_d in bar(M_c)}
    for c in mins:
        row = bar_m[c] = {}
        for z, p in cols[c].items():
            d = coset[z][0]
            row[d] = padd(row.get(d, {}), p, shift=d.length - z.length)
    out = {}
    for k, c in enumerate(mins):
        n, acc = {c: {0: 1}}, {}  # acc[d]: sum of bar(n_e) bar_m[e][d] over the e solved so far
        for d in [c, *reversed(mins[:k])]:
            if d != c:
                g = acc.get(d, {})
                nd = {e: v for e, v in g.items() if e > 0}
                if g != padd(nd, pneg(pbar(nd))):
                    raise AssertionError(f"inconsistent parabolic bar solve at ({d}, {c}): {g}")
                if not nd:
                    continue
                n[d] = nd
            for f, r in bar_m[d].items():
                if f != d:
                    acc[f] = padd(acc.get(f, {}), pmul(pbar(n[d]), r))
        out[coset[c][1]] = {coset[d][1]: nd for d, nd in n.items()}
    return out


# ---------------------------------------------------------------------------
# Graded dimension series of a free polynomial ring (generators in degree 2)
# ---------------------------------------------------------------------------


def poly_ring_series(rank: int, n_max: int) -> list[int]:
    """Coefficients of (1 + q^2 + q^4 + ...)^rank up to degree n_max."""
    series = [1] + [0] * n_max
    gen = [1 if n % 2 == 0 else 0 for n in range(n_max + 1)]
    for _ in range(rank):
        series = [sum(series[j] * gen[n - j] for j in range(n + 1)) for n in range(n_max + 1)]
    return series


# ---------------------------------------------------------------------------
# Local Lefschetz polynomial by long division
# ---------------------------------------------------------------------------


def local_lefschetz_oracle(h, d):
    """(P(q) - q^d P(1/q)) / (1 - q) and its three verdicts, from h = h_{y,x}(v).

    ``h`` is a plain {exp: coeff} dict and d = l(x) - l(y); P(q) is read off
    h(v) = v^d P(v^-2).  The numerator is divided by 1 - q from its lowest
    exponent up.  Returns ``(quotient, palindromic, unimodal, nonneg)``: the
    quotient as a plain dict, and the verdicts written out over its dense
    coefficient list, from its lowest to its highest nonzero exponent.
    """
    P = {}
    for i, c in h.items():
        assert (d - i) % 2 == 0 and d - i >= 0, "not of the shape v^d P(v^-2)"
        P[(d - i) // 2] = c
    num = padd(P, {d - e: c for e, c in P.items()}, factor=-1)
    quotient, rem = {}, dict(num)
    while rem:
        lo = min(rem)
        assert lo < max(num), "the numerator is not divisible by 1 - q"
        quotient[lo] = rem[lo]
        rem = padd(rem, {lo: 1, lo + 1: -1}, factor=-rem[lo])  # rem -= c q^lo (1 - q)
    if not quotient:
        return {}, True, True, True
    lo, hi = min(quotient), max(quotient)
    dense = [quotient.get(e, 0) for e in range(lo, hi + 1)]
    # palindromic about (d - 1)/2: the coefficient of e is that of d - 1 - e
    palindromic = all(dense[e - lo] == quotient.get(d - 1 - e, 0) for e in range(lo, hi + 1))
    nonneg = all(c >= 0 for c in dense)
    # unimodal: a weakly rising run, then a weakly falling one, to the end
    k = 0
    while k + 1 < len(dense) and dense[k] <= dense[k + 1]:
        k += 1
    while k + 1 < len(dense) and dense[k] >= dense[k + 1]:
        k += 1
    return quotient, palindromic, nonneg and k == len(dense) - 1, nonneg


# ---------------------------------------------------------------------------
# DimTable renderers, one (row, column) lookup per cell
# ---------------------------------------------------------------------------


def dimtable_json(table) -> str:
    payload = {
        "rows": list(table.row_labels),
        "cols": list(table.col_labels),
        "display_names": list(table.display_names),
        "caption": table.caption,
        "cells": {
            f"{r},{c}": {str(i): n for i, n in sorted(cell.items())}
            for (r, c), cell in sorted(table.cells.items())
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def dimtable_csv(table) -> str:
    lines = ["row,col,i,dim"]
    for r in table.row_labels:
        for c in table.col_labels:
            cell = table.cells.get((r, c))
            if cell:
                for i, n in sorted(cell.items()):
                    lines.append(f"{r},{c},{i},{n}")
    return "\n".join(lines) + "\n"


def dimtable_text(table) -> str:
    """Raises ValueError on a table with no rows and some columns."""

    def fmt_cell(cell):
        if not cell:
            return "."
        return "{" + ",".join(f"{i}:{n}" for i, n in sorted(cell.items())) + "}"

    rows = []
    for r in table.row_labels:
        rows.append([fmt_cell(table.cells.get((r, c))) for c in table.col_labels])
    widths = [
        max(len(table.col_labels[j]), max(len(row[j]) for row in rows))
        for j in range(len(table.col_labels))
    ]
    head_w = max((len(r) for r in table.row_labels), default=1)
    out = [table.caption]
    out.append(
        " ".join([" " * head_w] + [table.col_labels[j].rjust(widths[j]) for j in range(len(widths))])
    )
    for r, row in zip(table.row_labels, rows):
        out.append(" ".join([r.ljust(head_w)] + [row[j].rjust(widths[j]) for j in range(len(widths))]))
    return "\n".join(out) + "\n"
