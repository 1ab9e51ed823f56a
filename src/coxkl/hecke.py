"""
The Hecke algebra of a finite Coxeter system and its Kazhdan-Lusztig basis.

Conventions.  We work throughout in the v-normalization: the standard basis
{H_x} satisfies

    H_s^2 = H_e + (v^-1 - v) H_s,

the bar involution sends v to v^-1 and H_x to (H_{x^-1})^-1, and the KL basis
element uH(x) is the unique bar-invariant element

    uH(x) = H_x + sum_{y < x} h_{y,x}(v) H_y,     h_{y,x} in v*Z[v].

The classical q-polynomials are recovered through
h_{y,x}(v) = v^(l(x)-l(y)) P_{y,x}(v^-2); equivalently P_{y,x}(q) =
sum_i h^i_{y,x} q^((l(x)-l(y)-i)/2), where h^i is the coefficient of v^i.
(In the q^(1/2)-normalization of Kazhdan-Lusztig's C'_x basis the same
numbers appear as C'_x = sum h^i_{y,x} q^(-i/2) T~_y; only the v-form is
implemented.)

All arithmetic is one generator step, ``_step``: a raw element times H_s
(``mul_by_gen`` and ``*``), bar(H_s) = H_s + (v - v^-1) (``bar``) or
uH(s) = H_s + v (the KL recursion and ``bott_samelson``), on the right or on
the left.  The constants ``_H``, ``_BAR_H`` and ``_UH`` hold those actions.
Every step reads and writes the raw form {element id: {exp: coeff}}, which is
also what a ``HeckeElt`` holds; Elements and ``LaurentPoly`` are built only
where a public function returns or prints.

KL elements are computed by the standard recursion and memoized.  It holds
for every left descent s of x, so it pivots on the one whose sx has the
smallest memoized row, which costs the fewest steps, and on the smallest left
descent when no such row is held; the KL basis is unique, so the row does not
depend on the choice.  The memo table can be persisted to a JSON cache keyed
by a hash of the Coxeter matrix and generator order.  The cache is written
by ``_dumps``, the package's one JSON encoder (keys sorted, no spaces), which
also writes every JSON line the CLI prints and ``DimTable.to_json``.

A group has few distinct h_{y,x} (121 among the 98,407 entries of A5), so
the algebra keeps each distinct polynomial once, in its pool, and every memo
entry, computed or loaded, is the pool index of its polynomial.  The
recursion works on indices: the left step on each pair {y, sy} and each
mu-correction is one lookup in a memo keyed by the indices of its operands,
and only a miss calls ``_step`` or ``_acc``.  Pooled dicts are never
mutated: ``kl_element`` wraps them as they are, and what a public function
returns to read is a copy.

A valid h_{y,x}, y < x, fixes its class (d, h), d = l(x) - l(y): P_{y,x}(0)
= 1 puts coefficient 1 at v^d and every other exponent lies below d, so
d = max(h); no coefficient is zero.  A polynomial's class is tested once,
when it joins the pool, and every row, computed, read through a symmetry
(below) or loaded, is checked as ``_check_row`` checks it, at one comparison
per entry.  A single entry is read only through ``_entry``, checked alike.

The table is invariant under a small group G of symmetries of W:
h_{y,x} = h_{y^-1,x^-1} (from the anti-involution H_w -> H_{w^-1}) and
h_{y,x} = h_{sigma(y),sigma(x)} for each permutation sigma of the generators
that preserves the Coxeter matrix and maps each connected component of the
Coxeter graph to itself (Kazhdan-Lusztig 1979; Bjorner-Brenti, ch. 5).
G = <inversion> x Aut0 has 2 elements on B_n (n >= 3) and H_n, 4 on A_n
(n >= 2), F4 and E6, and 12 on D4.  So a row is computed at most once per
orbit of G: before recursing, ``_kl_raw`` looks for a memoized row of g(x),
g != 1 in G, and if there is one, the row of x is that row read through g,
{g^-1(y): h}, sharing its pool indices.  ``_through`` relabels and checks it
in one loop, and it counts as computed.  The id tables of G come from the
Cayley tables.  On A5, 490 of the 720 rows are read this way in id order.
The cache holds the memo's own form: each polynomial once, and one row per
orbit as positions in that list over the y of [e, x] in id order.  A load
rebuilds the y from the group and reads the other rows of the orbit through G.

>>> from coxkl import CoxeterSystem, HeckeAlgebra
>>> W = CoxeterSystem.from_type("A3")
>>> A = HeckeAlgebra(W)
>>> A.kl_table()
>>> entries = [i for row in A._h.values() for i in row.values()]
>>> len(entries), len(set(entries))
(213, 10)
>>> x = W.parse_element("s2s1s3s2")
>>> h = A.h_poly(W.identity, x)
>>> h._c[2] = 9  # a copy: the pooled entry is unchanged
>>> A.h_poly(W.identity, x)
LaurentPoly('v^2 + v^4')
"""
from __future__ import annotations

import json
import os
import threading
from types import MappingProxyType
from typing import Iterable, Mapping

from .coxeter import CoxeterError, CoxeterSystem, Element
from .laurent import LaurentPoly, _acc, _mac

__all__ = ["MalformedKL", "HeckeElt", "HeckeAlgebra"]

CACHE_SCHEMA = 3


class MalformedKL(RuntimeError):
    """An h-polynomial violates the KL degree or parity constraints (a bug)."""


Raw = dict[int, dict[int, int]]  # element id -> {exponent: coefficient}
Row = dict[int, int]  # element id -> pool index
_ONE = 0  # the pool index of h_{x,x} = 1, which every algebra interns first
# The one JSON form of the package, for the cache and every printed line: keys sorted, no spaces.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# H_y (H_s + c) = H_ys + c H_y when ys > y and H_ys + (c + v^-1 - v) H_y
# when ys < y, by H_s^2 = H_e + (v^-1 - v) H_s.  Each constant holds the two
# coefficients of H_y, (ys > y, ys < y), as (shift, factor) pairs.
_H = ((), ((-1, 1), (1, -1)))
_BAR_H = (((1, 1), (-1, -1)), ())
_UH = (((1, 1),), ((-1, 1),))


def _step(W: CoxeterSystem, raw: Raw, s: int, gen, side: str = "right") -> Raw:
    """raw * gen(s), or gen(s) * raw when side is "left"; some maps may be empty."""
    table, lengths = W._table(side), W._lengths
    W._gen(s)
    up, down = gen
    out: Raw = {}
    for yi, p in raw.items():
        ti = table[yi][s]
        _acc(out.setdefault(ti, {}), p)
        terms = up if lengths[ti] > lengths[yi] else down
        if terms:
            d = out.setdefault(yi, {})
            for k, f in terms:
                _acc(d, p, k, f)
    return out


def _same_system(a: CoxeterSystem, b: CoxeterSystem) -> bool:
    # Equal matrices number the elements alike; the generator names must agree too.
    return a is b or (a.coxeter_matrix, a.generator_names) == (b.coxeter_matrix, b.generator_names)


class HeckeElt:
    """A finite sum  sum_y c_y(v) H_y  in the standard basis.

    Immutable.  It holds one private map {id of y: {exp: coeff}} in ascending
    id order, which is the (length, ShortLex) order, and with no empty map.
    Those maps may be shared (``kl_element`` shares the pooled ones) and are
    never mutated.  The constructor checks its {Element: LaurentPoly | int}
    input once; ``terms``, ``coeff`` and ``support`` build Elements and copied
    Laurent polynomials when read.  Addition, subtraction and scalar
    multiplication are coefficient-wise; ``*`` between two elements is the
    Hecke product.  Elements over different systems do not mix.
    """

    __slots__ = ("system", "_r")

    def __init__(self, system: CoxeterSystem, terms: Mapping[Element, LaurentPoly | int]):
        raw = {}
        for el, p in terms.items():
            raw[system._id(el)] = (p if isinstance(p, LaurentPoly) else LaurentPoly.monomial(0, p))._c
        self.system = system
        self._r = {yi: raw[yi] for yi in sorted(raw) if raw[yi]}

    @classmethod
    def _wrap(cls, system: CoxeterSystem, raw: Raw) -> HeckeElt:
        # An internal result: raw's maps belong to the element from here on.
        elt = cls(system, {})
        elt._r = {yi: raw[yi] for yi in sorted(raw) if raw[yi]}
        return elt

    @classmethod
    def standard(cls, system: CoxeterSystem, x: Element) -> HeckeElt:
        """The standard basis element H_x."""
        return cls(system, {x: LaurentPoly.one()})

    @property
    def terms(self) -> Mapping[Element, LaurentPoly]:
        return MappingProxyType({self.system._el(yi): LaurentPoly._raw(dict(p)) for yi, p in self._r.items()})

    def coeff(self, x: Element) -> LaurentPoly:
        return LaurentPoly._raw(dict(self._r.get(self.system._id(x), {})))

    def support(self) -> tuple[Element, ...]:
        return tuple(map(self.system._el, self._r))

    @property
    def is_zero(self) -> bool:
        return not self._r

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return _same_system(self.system, other.system) and self._r == other._r

    def __hash__(self):
        return hash(tuple((yi, tuple(sorted(p.items()))) for yi, p in self._r.items()))

    def _check(self, other: HeckeElt) -> None:
        if not _same_system(self.system, other.system):
            raise CoxeterError("cannot combine elements over different systems")

    def __add__(self, other: HeckeElt) -> HeckeElt:
        if not isinstance(other, HeckeElt):
            return NotImplemented
        self._check(other)
        out = dict(self._r)
        for yi, p in other._r.items():
            out[yi] = d = dict(out.get(yi, {}))
            _acc(d, p)
        return HeckeElt._wrap(self.system, out)

    def __sub__(self, other: HeckeElt) -> HeckeElt:
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return HeckeElt._wrap(self.system, {yi: (LaurentPoly._raw(p) * other)._c for yi, p in self._r.items()})
        if isinstance(other, HeckeElt):
            self._check(other)
            return other._fold(self._r, _H)
        return NotImplemented

    __rmul__ = __mul__

    def mul_by_gen(self, s: int, side: str = "right") -> HeckeElt:
        """Multiply by the generator H_s on the given side.

        H_y H_s = H_{ys} when ys > y and H_{ys} + (v^-1 - v) H_y otherwise;
        the left case is symmetric.
        """
        return HeckeElt._wrap(self.system, _step(self.system, self._r, s, _H, side))

    def _fold(self, start: Raw, gen, bar: bool = False) -> HeckeElt:
        # The sum over the terms c H_x of self of start * gen(s_1)...gen(s_k) * c
        # (bar(c) when bar is set), where s_1...s_k is the ShortLex word of x.  The
        # words are walked in lexicographic order, keeping the results of the
        # current word's prefixes, so each prefix costs one _step.
        W, words = self.system, self.system._words
        total: Raw = {}
        prev, path = (), [start]  # path[k]: start times the first k letters of prev
        for xi in sorted(self._r, key=words.__getitem__):
            word, k = words[xi], 0
            while k < len(prev) and word[k] == prev[k]:  # word sorts after prev, so word[k] exists
                k += 1
            del path[k + 1:]
            for s in word[k:]:
                path.append(_step(W, path[-1], s, gen))
            prev, p = word, self._r[xi]
            c = {-e: a for e, a in p.items()} if bar else p
            for yi, poly in path[-1].items():
                _mac(total.setdefault(yi, {}), poly, c)
        return HeckeElt._wrap(W, total)

    def bar(self) -> HeckeElt:
        """The bar involution: v -> v^-1 and H_x -> (H_{x^-1})^-1.

        Computed additively from bar(H_s) = H_s + (v - v^-1) H_e folded along
        the reduced word of each support element.
        """
        return self._fold({0: {0: 1}}, _BAR_H, bar=True)

    def __repr__(self) -> str:
        W = self.system
        if not self._r:
            return "HeckeElt(0)"
        bits = [f"({p})H[{W.format_element(x)}]" for x, p in self.terms.items()]
        return "HeckeElt(" + " + ".join(bits) + ")"


def _kl_class(h: Mapping[int, int], d: int) -> bool:
    # Whether h can be h_{y,x}, y < x, d = l(x) - l(y): exponents i with 1 <= i <= d, i = d mod 2, no zero
    # coefficient (_acc drops them), and P_{y,x}(0) = 1, the coefficient of v^d (KL 1979).  None for d <= 0.
    return h.get(d) == 1 and h.keys() <= set(range(d, 0, -2)) and 0 not in h.values()


def _saved_entry(pairs) -> dict[int, int]:
    # A polynomial of a cache's "h", parsed from its saved [[exp, coeff], ...]; _kl_class judges it
    # when pooled.  A pair that is not two ints raises TypeError or ValueError, as for a file
    # save_cache never writes; an exponent listed twice is MalformedKL.
    h = dict(pairs)
    if not all(type(e) is int and type(c) is int for e, c in h.items()):
        raise TypeError(f"cache polynomial {pairs!r} is not a list of int pairs")
    if len(h) != len(pairs):
        raise MalformedKL(f"cache polynomial {pairs!r} lists an exponent twice")
    return h


def _symmetries(W: CoxeterSystem) -> list[tuple[list[int], list[int]]]:
    # The id tables (g, g^-1) of each g != 1 in G = <iota> x Aut0, with iota
    # the inversion and Aut0 the tables of W._graph_automorphisms(), whose
    # first one is the identity.
    auts = W._graph_automorphisms()
    out = []
    for g in [[W._inv[i] for i in t] for t in auts] + auts[1:]:
        back = [0] * len(g)
        for i, j in enumerate(g):
            back[j] = i
        out.append((g, back))
    return out


class HeckeAlgebra:
    """KL basis machinery over one Coxeter system, with a memoized table.

    The memo maps x to the coefficient family {h_{y,x}} by pool index.  It can be
    loaded from and saved to a JSON cache file; a cache whose fingerprint
    does not match the system is ignored rather than migrated.

    The memo behaves as a concurrent memo table: entries are stored only
    once fully built, the result is independent of interleaving, and
    concurrent callers at worst duplicate work.
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        # xid -> yid -> the pool index of h_{y,x}.
        self._h: dict[int, Row] = {}
        # The pool, the one owner of polynomials: _polys[i] is the dict of index
        # i, never mutated, _pool maps its sorted items to i, and _deg[i] is the
        # d = max(h) with _kl_class(h, d), or None when h is in no KL class.
        self._polys: list[dict[int, int]] = []
        self._pool: dict[tuple, int] = {}
        self._deg: list[int | None] = []
        self._lock = threading.RLock()
        # Pool arithmetic memoized on the indices of its operands.
        self._ops: dict[tuple, int | tuple[int, int]] = {}
        self.computed_count = 0
        self._sym = _symmetries(system)
        self._intern({0: 1})  # index _ONE

    def _intern(self, h: dict[int, int], new: dict[tuple, int] | None = None) -> int:
        # The pool index of h; a new h is classed here, once, and published in _pool (in new, for a cache load
        # holding the lock) only after _polys and _deg hold it.  The lock keeps two threads from one index.
        key = tuple(sorted(h.items()))
        i = self._pool.get(key)
        if i is None:
            with self._lock:
                pool = self._pool if new is None else new
                i = self._pool.get(key, pool.get(key))
                if i is None:
                    d = max(h, default=0)
                    self._deg.append(d if _kl_class(h, d) else None)
                    self._polys.append(h)
                    i = pool[key] = len(self._polys) - 1
        return i

    def _check_row(self, xi: int, row: Row) -> Row:
        # The shape of a KL row {y: index of h_{y,x}}: h_{x,x} = 1, and
        # _kl_class(h_{y,x}, l(x) - l(y)) for every other y, read off _deg.  Returns row.
        W, deg = self.system, self._deg
        if row.get(xi) != _ONE:
            raise MalformedKL(f"uH({W.format_element(W._el(xi))}) must be unitriangular")
        lengths, lx = W._lengths, W._lengths[xi]
        for yi, i in row.items():
            if deg[i] != lx - lengths[yi] and yi != xi:
                h = f"h({W.format_element(W._el(yi))}, {W.format_element(W._el(xi))})"
                raise MalformedKL(f"{h} has a zero coefficient or breaks v*Z[v], the length bound, parity or P(0) = 1")
        return row

    def _through(self, xi: int, row: Row, t: list[int], check: bool = True) -> Row:
        # The one reader of G's rule: the row of x, read off the row of t^-1(x) through the id table t of some g in G,
        # checked as it is relabeled (on the new ids' lengths) and, failing, named by _check_row unless check is off.
        lengths, deg, lx = self.system._lengths, self._deg, self.system._lengths[xi]
        out, bad = {}, False
        for yi, i in row.items():
            zi = t[yi]
            out[zi] = i
            if deg[i] != lx - lengths[zi] and zi != xi:
                bad = True
        return self._check_row(xi, out) if check and (bad or out.get(xi) != _ONE) else out

    def _entry(self, yi: int, xi: int) -> Mapping[int, int]:
        # The one reader of a single h_{y,x}, by ids: its pooled dict, which callers copy, or {}
        # when y is not in the row of x.  An entry present is refused as _check_row would.
        i = self._kl_raw(xi).get(yi)
        if i is None:
            return {}
        self._check_row(xi, {xi: _ONE, yi: i})
        return self._polys[i]

    # -- KL recursion ---------------------------------------------------

    def _kl_raw(self, xi: int) -> Row:
        row = self._h.get(xi)
        if row is not None:
            return row
        W, memo = self.system, self._h
        left, word = W._left, W._words[xi]
        # h_{y,x} = h_{g(y),g(x)} for g in G: when the memo holds the row of
        # some g(x), the row of x is that row read through g, checked as it is relabeled.
        for g, back in self._sym:
            if g[xi] in memo:
                res = self._through(xi, memo[g[xi]], back)
                break
        else:
            if not word:
                res: Row = {xi: _ONE}
            else:
                # For every left descent s of x, with u = sx, the product uH(s) uH(u)
                # equals uH(x) + sum of mu(z, u) uH(z) over z < u with sz < z, and the
                # KL basis is unique, so any s gives the same row.  The pairs cost
                # |row of u| and the corrections follow it, so pivot on the s whose u
                # has the smallest held row, ties to the smaller s; with none held, on
                # the smallest left descent, the first letter of the ShortLex word.
                # As l(sy) = l(y) +- 1 and ids follow (length, ShortLex) order, sy < y as ids iff in length.
                held = [(len(memo[ui]), t) for t, ui in enumerate(left[xi]) if ui < xi and ui in memo]
                s = min(held)[1] if held else word[0]
                C = self._kl_raw(left[xi][s])
                polys, ops, intern = self._polys, self._ops, self._intern
                # T is stored as the row of x: its keys are [e, u] | s[e, u] = [e, x].
                # uH(s) uH(u) on a pair {y, sy} with y < sy depends only on
                # (h_{y,u}, h_{sy,u}): one memo lookup per pair.  C covers the
                # lower set [e, u], so each pair is met at y; h_{sy,u} may be 0.
                # The y with sy < y are the z of the corrections: the same walk
                # keeps each (z, mu(z, u)) with mu(z, u) != 0, in C's order.
                T, mus = {}, []
                for yi, a in C.items():
                    hi = left[yi][s]
                    if hi < yi:  # done from its lower element hi
                        if m := polys[a].get(1):
                            mus.append((yi, m))
                        continue
                    b = C.get(hi)
                    got = ops.get((a, b))
                    if got is None:
                        out = _step(W, {yi: polys[a], hi: {} if b is None else polys[b]}, s, _UH, "left")
                        got = ops.setdefault((a, b), (intern(out[yi]), intern(out[hi])))
                    T[yi], T[hi] = got
                for zi, m in mus:
                    for wi, pw in self._kl_raw(zi).items():
                        # T[w] -= m h_{w,z}, one memo lookup.
                        cur = T[wi]
                        key = (cur, pw, m)
                        got = ops.get(key)
                        if got is None:
                            d = dict(polys[cur])
                            _acc(d, polys[pw], 0, -m)
                            got = ops.setdefault(key, intern(d))
                        T[wi] = got
                res = T
            self._check_row(xi, res)
        memo[xi] = res
        self.computed_count += 1
        return res

    def kl_element(self, x: Element) -> HeckeElt:
        """The bar-invariant basis element uH(x) = sum_y h_{y,x}(v) H_y; MalformedKL if its row is corrupt."""
        xi = self.system._id(x)
        row = self._check_row(xi, self._kl_raw(xi))
        return HeckeElt._wrap(self.system, {yi: self._polys[i] for yi, i in row.items()})

    def kl_table(self) -> None:
        """Compute (or finish computing) uH(x) for every x in the group."""
        for xi in range(self.system.order):
            self._kl_raw(xi)

    def h_poly(self, y: Element, x: Element) -> LaurentPoly:
        """h_{y,x}(v), a copy: the H_y-coefficient of uH(x), zero unless y <= x; MalformedKL if corrupt."""
        return LaurentPoly._raw(dict(self._entry(self.system._id(y), self.system._id(x))))

    def kl_polynomial(self, y: Element, x: Element) -> LaurentPoly:
        """P_{y,x}(q), from h_{y,x}(v) = v^(l(x)-l(y)) P_{y,x}(v^-2)."""
        d, h = x.length - y.length, self._entry(self.system._id(y), self.system._id(x))
        return LaurentPoly({(d - i) // 2: c for i, c in h.items()})

    def mu(self, y: Element, x: Element) -> int:
        """The coefficient of v in h_{y,x}: the KL mu(y, x), 0 unless y < x; MalformedKL if corrupt."""
        return self._entry(self.system._id(y), self.system._id(x)).get(1, 0)

    # -- basis conversion -------------------------------------------------

    def to_kl_basis(self, a: HeckeElt) -> dict[Element, LaurentPoly]:
        """Coefficients c_x with a = sum_x c_x(v) uH(x), x in (length, ShortLex) order."""
        if not _same_system(a.system, self.system):
            raise CoxeterError("element does not belong to this algebra's system")
        return self._peel({yi: dict(p) for yi, p in a._r.items()})

    def _peel(self, rem: Raw) -> dict[Element, LaurentPoly]:
        # to_kl_basis on a raw element whose maps it may consume.  From the
        # largest id down: every y < x in the row of x has a smaller id, so
        # the coefficient at x is final when x is reached.
        W, polys, out = self.system, self._polys, {}
        for xi in range(max(rem, default=-1), -1, -1):
            c = rem.pop(xi, None)
            if c:
                out[xi] = c
                for yi, i in self._check_row(xi, self._kl_raw(xi)).items():
                    if yi != xi:
                        _mac(rem.setdefault(yi, {}), polys[i], c, -1)
        return {W._el(xi): LaurentPoly._raw(out[xi]) for xi in reversed(out)}

    def bott_samelson(self, word: Iterable[int]) -> dict[Element, LaurentPoly]:
        """KL-basis decomposition of the product uH(s_1) ... uH(s_k).

        The coefficients are the graded multiplicities with which the
        indecomposable objects indexed by group elements occur in the
        corresponding iterated tensor (Bott-Samelson) object.
        """
        raw: Raw = {0: {0: 1}}
        for s in word:
            raw = _step(self.system, raw, s, _UH)
        return self._peel(raw)

    # -- persistence -------------------------------------------------------

    def save_cache(self, path) -> None:
        """Write the memo table as deterministic JSON: each polynomial once, then one row per orbit of G.

        ``"h"`` lists the distinct polynomials as ``[[exp, coeff], ...]``, numbered by
        first use in the rows, so the bytes do not depend on the pool's order.  ``"kl"``
        is ``[[x, [k, ...]], ...]``: for each orbit the memo meets, the row of its
        smallest id x, read through G when the memo holds another row of the orbit,
        with the position in ``"h"`` of h_{y,x} for each y of the row in id order.
        """
        rows: dict[int, Row] = {}  # the smallest id of each orbit the memo meets -> its row
        for xi, row in sorted(self._h.items()):
            g = min((g for g, _ in self._sym), key=lambda g: g[xi])
            if (ri := min(xi, g[xi])) not in rows:  # a held row of the smallest id came first
                rows[ri] = row if ri == xi else self._through(ri, row, g, check=False)  # as held
        number: dict[int, int] = {}  # pool index -> position in "h", by first use
        kl = [[xi, [number.setdefault(i, len(number)) for _, i in sorted(row.items())]] for xi, row in sorted(rows.items())]
        h = [sorted(self._polys[i].items()) for i in number]
        blob = _dumps({"schema": CACHE_SCHEMA, "coxeter_hash": self.system.fingerprint, "h": h, "kl": kl})
        # A temp file per writer (process and thread) in the same directory, then os.replace:
        # a reader sees the old file or the new one, and no writer truncates or moves another's.
        tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(blob)
                fh.write("\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    def load_cache(self, path) -> bool:
        """Load a cache file written by ``save_cache``; return False (and load nothing) on mismatch.

        Missing or unreadable files, another schema or fingerprint, an x that
        is not an int in 0..order-1, a position that names no polynomial of
        ``"h"`` and a polynomial whose exponents and coefficients are not ints
        (a float, string or boolean) return False: stale caches are ignored,
        never migrated.  No y is stored: the y of the row of x are the Bruhat
        interval [e, x] in id order, built as [e, u] | s[e, u] from the row of
        u = sx when the file or the memo holds it, else by
        ``CoxeterSystem._interval``.  Each polynomial is pooled once.  A row
        whose length is not |[e, x]|, a row listed twice or at an id that is
        not its orbit's smallest, a polynomial with an exponent twice, and a
        row failing the check of computed rows (``_check_row``: P_{y,x}(0) = 1
        and no zero coefficient included) raise ``MalformedKL`` before
        anything is stored, and a refused file leaves the pool as it was.  An accepted
        row gives its G-orbit, read through G and checked.  None counts as computed.
        """
        W = self.system
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            # A saved cache holds no true, false or null, and int() refuses every
            # float, NaN and Infinity token.  Its only letters are those of its
            # keys and of a hex hash: no "u", and one "l", that of "kl".
            if "u" in text or text.find("l") != text.rfind("l"):
                return False
            data = json.loads(text, parse_float=int, parse_constant=int)
        except (OSError, ValueError):
            return False
        if not isinstance(data, dict) or data.get("schema") != CACHE_SCHEMA:
            return False
        if data.get("coxeter_hash") != W.fingerprint:
            return False
        n, left, words = W.order, W._left, W._words
        loaded: dict[int, Row] = {}
        with self._lock:  # no other thread pools meanwhile, so a refused load can drop what it pooled
            n0, new = len(self._polys), {}  # new: this load's polynomials, not in _pool until it is kept
            try:
                index = dict(enumerate(self._intern(_saved_entry(pairs), new) for pairs in data["h"]))
                for xi, ks in data["kl"]:
                    if type(xi) is not int or not 0 <= xi < n:
                        return False
                    # A row read through G is never at its orbit's smallest id, so x in loaded means x was listed.
                    if xi in loaded or any(g[xi] < xi for g, _ in self._sym):
                        raise MalformedKL(f"the cache lists uH({W.format_element(W._el(xi))}) twice or off its orbit's smallest id")
                    # [e, x] = [e, u] | s[e, u], with s the first letter of x and u = sx, when u's row is
                    # loaded or in the memo; else from the group.
                    s = words[xi][0] if xi else None
                    below = None if s is None else loaded.get(left[xi][s]) or self._h.get(left[xi][s])
                    ys = sorted(W._interval(xi) if below is None else {*below, *(left[yi][s] for yi in below)})
                    if len(ks) != len(ys):
                        raise MalformedKL(f"the row of uH({W.format_element(W._el(xi))}) must cover exactly [e, x]")
                    row = loaded[xi] = self._check_row(xi, dict(zip(ys, [index[k] for k in ks])))
                    for mi, g in {g[xi]: g for g, _ in self._sym if g[xi] != xi}.items():  # the rest of x's orbit
                        loaded[mi] = self._through(mi, row, g)
                self._pool.update(new)
                n0 = len(self._polys)  # kept: nothing to drop
            except (LookupError, TypeError, ValueError):
                return False
            finally:  # a refused load, False or MalformedKL, drops what it pooled
                del self._polys[n0:], self._deg[n0:]
        self._h.update(loaded)
        return True
