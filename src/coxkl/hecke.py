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

KL elements are computed by the standard recursion on the smallest left
descent and memoized; the memo table can be persisted to a JSON cache keyed
by a hash of the Coxeter matrix and generator order.

A group has few distinct h_{y,x} (121 among the 98,407 entries of A5), so
the algebra keeps one dict per distinct polynomial, its pool, and every memo
entry, computed or loaded, is the pooled dict.  The recursion works on those
shared objects: the left step on each pair {y, sy} and each mu-correction
is one lookup in a memo keyed by the ids of its pooled operands, and only a
miss calls ``_step`` or ``_acc``.  Pooled dicts are never mutated; what a
public function returns is a copy.

Every row, computed, read through a symmetry (below) or loaded, passes
``_check_row``, whose test of h_{y,x} depends only on the class (d, h),
d = l(x) - l(y).  The algebra keeps the classes it has verified (120 on A5
besides h_{x,x} = 1), so each entry costs one lookup and each class one test.

The table is invariant under a small group G of symmetries of W:
h_{y,x} = h_{y^-1,x^-1} (from the anti-involution H_w -> H_{w^-1}) and
h_{y,x} = h_{sigma(y),sigma(x)} for each permutation sigma of the generators
that preserves the Coxeter matrix and maps each connected component of the
Coxeter graph to itself (Kazhdan-Lusztig 1979; Bjorner-Brenti, ch. 5).
G = <inversion> x Aut0 has 2 elements on B_n (n >= 3) and H_n, 4 on A_n
(n >= 2), F4 and E6, and 12 on D4.  So a row is computed at most once per
orbit of G: before recursing, ``_kl_raw`` looks for a memoized row of g(x),
g != 1 in G, and if there is one, the row of x is that row read through g,
{g^-1(y): h}, sharing its pooled dicts.  It is checked and counted like any
computed row.  The id tables of G come from the Cayley tables and are built
at the first row the algebra computes, so an algebra that only loads a cache
never builds them.  On A5, 490 of the 720 rows are read this way in id order.

>>> from coxkl import CoxeterSystem, HeckeAlgebra
>>> W = CoxeterSystem.from_type("A3")
>>> A = HeckeAlgebra(W)
>>> A.kl_table()
>>> entries = [h for row in A._h.values() for h in row.values()]
>>> len(entries), len({id(h) for h in entries})
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
from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .coxeter import CoxeterError, CoxeterSystem, Element
from .laurent import LaurentPoly, _acc, _mac

__all__ = ["MalformedKL", "HeckeElt", "HeckeAlgebra", "CACHE_SCHEMA"]

CACHE_SCHEMA = 2


class MalformedKL(RuntimeError):
    """An h-polynomial violates the KL degree or parity constraints (a bug)."""


Raw = dict[int, dict[int, int]]  # element id -> {exponent: coefficient}

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


class HeckeElt:
    """A finite sum  sum_y c_y(v) H_y  in the standard basis.

    Immutable; ``terms`` maps canonical elements to nonzero Laurent
    polynomials.  Addition, subtraction and scalar multiplication are
    coefficient-wise; ``*`` between two elements is the Hecke product.
    """

    __slots__ = ("system", "_terms")

    def __init__(self, system: CoxeterSystem, terms: Mapping[Element, LaurentPoly]):
        clean: dict[Element, LaurentPoly] = {}
        for el, p in sorted(terms.items(), key=lambda kv: kv[0].sort_key):
            system._id(el)
            if not isinstance(p, LaurentPoly):
                p = LaurentPoly.monomial(0, p)
            if p:
                clean[el] = p
        self.system = system
        self._terms = clean

    @classmethod
    def standard(cls, system: CoxeterSystem, x: Element) -> HeckeElt:
        """The standard basis element H_x."""
        return cls(system, {x: LaurentPoly.one()})

    @property
    def terms(self) -> Mapping[Element, LaurentPoly]:
        return MappingProxyType(self._terms)

    def coeff(self, x: Element) -> LaurentPoly:
        return self._terms.get(x, LaurentPoly.zero())

    def support(self) -> tuple[Element, ...]:
        return tuple(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple((el.word, p.pairs()) for el, p in self._terms.items()))

    def __add__(self, other: HeckeElt) -> HeckeElt:
        if not isinstance(other, HeckeElt):
            return NotImplemented
        out = dict(self._terms)
        for el, p in other._terms.items():
            out[el] = out.get(el, LaurentPoly.zero()) + p
        return HeckeElt(self.system, out)

    def __sub__(self, other: HeckeElt) -> HeckeElt:
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return HeckeElt(self.system, {el: p * other for el, p in self._terms.items()})
        if isinstance(other, HeckeElt):
            return self._product(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.__mul__(other)
        return NotImplemented

    def mul_by_gen(self, s: int, side: str = "right") -> HeckeElt:
        """Multiply by the generator H_s on the given side.

        H_y H_s = H_{ys} when ys > y and H_{ys} + (v^-1 - v) H_y otherwise;
        the left case is symmetric.
        """
        return _from_raw(self.system, _step(self.system, self._raw(), s, _H, side))

    def _raw(self) -> Raw:
        # Shares the coefficient maps, which _step and _mac only read.
        return {self.system._id(el): p._c for el, p in self._terms.items()}

    def _fold(self, start: Raw, gen, bar: bool = False) -> HeckeElt:
        # The sum over the terms c H_x of self of start * gen(s_1)...gen(s_k) * c
        # (bar(c) when bar is set), where s_1...s_k is the reduced word of x.
        W = self.system
        total: Raw = {}
        for el, p in self._terms.items():
            cur = start
            for s in el.word:
                cur = _step(W, cur, s, gen)
            c = p.bar()._c if bar else p._c
            for yi, poly in cur.items():
                _mac(total.setdefault(yi, {}), poly, c)
        return _from_raw(W, total)

    def _product(self, other: HeckeElt) -> HeckeElt:
        if self.system is not other.system:
            raise CoxeterError("cannot multiply elements over different systems")
        return other._fold(self._raw(), _H)

    def bar(self) -> HeckeElt:
        """The bar involution: v -> v^-1 and H_x -> (H_{x^-1})^-1.

        Computed additively from bar(H_s) = H_s + (v - v^-1) H_e folded along
        the reduced word of each support element.
        """
        return self._fold({0: {0: 1}}, _BAR_H, bar=True)

    def __repr__(self) -> str:
        W = self.system
        if not self._terms:
            return "HeckeElt(0)"
        bits = [f"({p})H[{W.format_element(el)}]" for el, p in self._terms.items()]
        return "HeckeElt(" + " + ".join(bits) + ")"


def _from_raw(system: CoxeterSystem, raw: Raw) -> HeckeElt:
    return HeckeElt(
        system,
        {system._el(i): LaurentPoly._raw(d) for i, d in raw.items() if d},
    )


def _kl_p(h: Mapping[int, int], d: int, y: Element, x: Element) -> dict[int, int]:
    # P_{y,x} as {exponent: coefficient} from the raw h_{y,x}, d = l(x) - l(y);
    # the one check that h has the degrees and parity of a KL family member.
    out: dict[int, int] = {}
    for i, c in h.items():
        j = d - i
        if j < 0 or j % 2:
            raise MalformedKL(f"h_poly({y!r}, {x!r}) = {LaurentPoly(h)} is not a valid KL family member")
        out[j // 2] = c
    return out


@cache
def _kl_exponents(d: int) -> frozenset[int]:
    # The exponents i of h_{y,x} with d = l(x) - l(y): 1 <= i <= d, i = d mod 2; none if d <= 0.
    return frozenset(range(d, 0, -2))


def _h_name(W: CoxeterSystem, yi: int, xi: int) -> str:
    return f"h({W.format_element(W._el(yi))}, {W.format_element(W._el(xi))})"


def _kl_class(h: Mapping[int, int], d: int) -> bool:
    # Whether h can be h_{y,x}, y < x, d = l(x) - l(y): exponents in _kl_exponents(d)
    # and P_{y,x}(0) = 1, the coefficient of v^d (Kazhdan-Lusztig 1979).  No h passes for d <= 0.
    return h.get(d) == 1 and h.keys() <= _kl_exponents(d)


def _class_memo(W: CoxeterSystem) -> list[list[Mapping[int, dict[int, int]]]]:
    # For each l(x), the list over l(y) of the {id(h): h} classes that passed
    # _kl_class at d = l(x) - l(y): one dict per d > 0, which holds each h, so
    # no id in it is reused.  d <= 0 maps to an empty read-only map.
    top = W._lengths[-1]
    by_d = [{} for _ in range(top + 1)]
    none = MappingProxyType({})
    return [[by_d[lx - ly] if ly < lx else none for ly in range(top + 1)] for lx in range(top + 1)]


def _check_row(W: CoxeterSystem, xi: int, row: Raw, memo: list | None = None) -> None:
    # The shape of a KL row {y: h_{y,x}}: h_{x,x} = 1, and _kl_class(h_{y,x},
    # l(x) - l(y)) for every other y, tested only for a class not yet in memo
    # (from _class_memo(W), fresh when None) and stored there once it passes.
    if row.get(xi) != {0: 1}:
        raise MalformedKL(f"uH({W.format_element(W._el(xi))}) must be unitriangular")
    lengths, lx = W._lengths, W._lengths[xi]
    seen = (memo or _class_memo(W))[lx]
    for yi, h in row.items():
        if id(h) not in seen[lengths[yi]] and yi != xi:
            if not _kl_class(h, lx - lengths[yi]):
                raise MalformedKL(f"{_h_name(W, yi, xi)} breaks v*Z[v], the length bound, parity or P(0) = 1")
            seen[lengths[yi]][id(h)] = h


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

    The memo maps x to the full coefficient family {h_{y,x}}.  It can be
    loaded from and saved to a JSON cache file; a cache whose fingerprint
    does not match the system is ignored rather than migrated.

    The memo behaves as a concurrent memo table: entries are stored only
    once fully built, the result is independent of interleaving, and
    concurrent callers at worst duplicate work.
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        # xid -> yid -> {exponent: coefficient}; entries are pooled, never mutated.
        self._h: dict[int, Raw] = {}
        # The one dict kept for each distinct polynomial, by its sorted items.
        self._pool: dict[tuple, dict[int, int]] = {}
        # Pool arithmetic memoized on the ids of its operands.  Each value
        # holds its operands, so no id is reused while its entry exists.
        self._ops: dict[tuple, tuple] = {}
        self.computed_count = 0
        # _symmetries(system), built at the first computed row.
        self._sym: list[tuple[list[int], list[int]]] | None = None
        # The (d, id(h)) classes _check_row has verified, as _class_memo lays them out.
        self._checked = _class_memo(system)

    def _intern(self, d: dict[int, int]) -> dict[int, int]:
        return self._pool.setdefault(tuple(sorted(d.items())), d)

    # -- KL recursion ---------------------------------------------------

    def _kl_raw(self, xi: int) -> Raw:
        row = self._h.get(xi)
        if row is not None:
            return row
        W = self.system
        left = W._left
        lengths = W._lengths
        word = W._words[xi]
        if self._sym is None:
            self._sym = _symmetries(W)
        # h_{y,x} = h_{g(y),g(x)} for g in G: when the memo holds the row of
        # some g(x), the row of x is that row read through g.
        seen = next(((self._h[g[xi]], back) for g, back in self._sym if g[xi] in self._h), None)
        if seen is not None:
            res = {seen[1][yi]: h for yi, h in seen[0].items()}
        elif not word:
            res: Raw = {xi: self._intern({0: 1})}
        else:
            # Pivot on the smallest left descent s (the first letter of the
            # ShortLex word); with u = sx the product uH(s) uH(u) equals
            # uH(x) + sum of mu(z, u) uH(z) over z < u with sz < z.
            s = word[0]
            C = self._kl_raw(left[xi][s])
            ops, intern = self._ops, self._intern
            # T is stored as the row of x: its keys are [e, u] | s[e, u] = [e, x].
            # uH(s) uH(u) on a pair {y, sy} with y < sy depends only on
            # (h_{y,u}, h_{sy,u}): one memo lookup per pair.  C covers the
            # lower set [e, u], so each pair is met at y; h_{sy,u} may be 0.
            T: Raw = {}
            for yi, a in C.items():
                hi = left[yi][s]
                if lengths[hi] < lengths[yi]:
                    continue  # done from its lower element hi
                b = C.get(hi)
                key = (id(a), id(b))
                got = ops.get(key)
                if got is None:
                    out = _step(W, {yi: a, hi: b or {}}, s, _UH, "left")
                    got = ops.setdefault(key, (a, b, intern(out[yi]), intern(out[hi])))
                T[yi], T[hi] = got[2], got[3]
            for zi, p in C.items():
                if lengths[left[zi][s]] < lengths[zi]:
                    m = p.get(1, 0)
                    if m:
                        for wi, pw in self._kl_raw(zi).items():
                            # T[w] -= m h_{w,z}, one memo lookup.
                            cur = T[wi]
                            key = (id(cur), id(pw), m)
                            got = ops.get(key)
                            if got is None:
                                d = dict(cur)
                                _acc(d, pw, 0, -m)
                                got = ops.setdefault(key, (cur, pw, intern(d)))
                            T[wi] = got[2]
            res = T
        _check_row(W, xi, res, self._checked)
        self._h[xi] = res
        self.computed_count += 1
        return res

    def kl_element(self, x: Element) -> HeckeElt:
        """The bar-invariant basis element uH(x) = sum_y h_{y,x}(v) H_y."""
        xi = self.system._id(x)
        return _from_raw(self.system, {yi: dict(d) for yi, d in self._kl_raw(xi).items()})

    def kl_table(self) -> None:
        """Compute (or finish computing) uH(x) for every x in the group."""
        for xi in range(self.system.order):
            self._kl_raw(xi)

    def h_poly(self, y: Element, x: Element) -> LaurentPoly:
        """h_{y,x}(v): the H_y-coefficient of uH(x); zero unless y <= x."""
        W = self.system
        yi, xi = W._id(y), W._id(x)
        d = self._kl_raw(xi).get(yi)
        return LaurentPoly._raw(dict(d)) if d else LaurentPoly.zero()

    def kl_polynomial(self, y: Element, x: Element) -> LaurentPoly:
        """P_{y,x}(q), from h_{y,x}(v) = v^(l(x)-l(y)) P_{y,x}(v^-2)."""
        return LaurentPoly(_kl_p(self.h_poly(y, x)._c, x.length - y.length, y, x))

    def mu(self, y: Element, x: Element) -> int:
        """The coefficient of v in h_{y,x}; drives the recursion."""
        return self.h_poly(y, x).coeff(1)

    # -- basis conversion -------------------------------------------------

    def to_kl_basis(self, a: HeckeElt) -> dict[Element, LaurentPoly]:
        """Coefficients c_x with a = sum_x c_x(v) uH(x).

        Works by peeling the maximal-length support: those coefficients are
        already final because every uH(x) is unitriangular in length.
        """
        if a.system is not self.system:
            raise CoxeterError("element does not belong to this algebra's system")
        W = self.system
        rem = {W._id(el): dict(p._c) for el, p in a.terms.items()}
        out: Raw = {}
        while rem:
            top = max(W._lengths[yi] for yi in rem)
            layer = [yi for yi in rem if W._lengths[yi] == top]
            for xi in layer:
                c = rem.pop(xi)
                out[xi] = c
                for yi, hp in self._kl_raw(xi).items():
                    if yi != xi:
                        _mac(rem.setdefault(yi, {}), hp, c, -1)
            rem = {yi: d for yi, d in rem.items() if d}
        return {
            W._el(xi): LaurentPoly(d)
            for xi, d in sorted(out.items(), key=lambda kv: W._el(kv[0]).sort_key)
        }

    def bott_samelson(self, word: Iterable[int]) -> dict[Element, LaurentPoly]:
        """KL-basis decomposition of the product uH(s_1) ... uH(s_k).

        The coefficients are the graded multiplicities with which the
        indecomposable objects indexed by group elements occur in the
        corresponding iterated tensor (Bott-Samelson) object.
        """
        W = self.system
        raw: Raw = {0: {0: 1}}
        for s in word:
            raw = _step(W, raw, s, _UH)
        return self.to_kl_basis(_from_raw(W, raw))

    # -- persistence -------------------------------------------------------

    def save_cache(self, path) -> None:
        """Write the memo table as deterministic JSON, rows and entries by id."""
        kl = [
            [xi, [[yi, sorted(h.items())] for yi, h in sorted(row.items())]]
            for xi, row in sorted(self._h.items())
        ]
        blob = json.dumps(
            {"schema": CACHE_SCHEMA, "coxeter_hash": self.system.fingerprint, "kl": kl},
            sort_keys=True,
            separators=(",", ":"),
        )
        # A temp file in the same directory and os.replace: a concurrent
        # reader sees the old file or the new one, never a partial write.
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(blob)
                fh.write("\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    def load_cache(self, path) -> bool:
        """Load a cache file; return False (and load nothing) on mismatch.

        ``"kl"`` is ``[[x, [[y, [[exp, coeff], ...]], ...]], ...]``, ids by position
        in ``all_elements()``.  Missing or unreadable files, another schema or
        fingerprint and ids outside 0..order-1 return False: stale caches are
        ignored, never migrated.  A row failing the check of computed rows
        (``_check_row``, P_{y,x}(0) = 1 included), or whose y are not exactly
        the Bruhat interval [e, x], raises ``MalformedKL`` before anything is
        stored.  [e, x] is built from the row of u = sx when the file or the
        memo holds it, else by ``CoxeterSystem._interval``.  Loaded entries are
        pooled like computed ones.
        """
        W = self.system
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return False
        if not isinstance(data, dict) or data.get("schema") != CACHE_SCHEMA:
            return False
        if data.get("coxeter_hash") != W.fingerprint:
            return False
        n, left, words = W.order, W._left, W._words
        pool, intern = self._pool, self._intern
        loaded: dict[int, Raw] = {}

        def interval(xi: int) -> set[int]:
            # [e, x] = [e, u] | s[e, u], with s the first letter of x and u = sx,
            # when u's row is loaded or in the memo; else from the group.
            if xi:
                s = words[xi][0]
                below = loaded.get(left[xi][s]) or self._h.get(left[xi][s])
                if below is not None:
                    return {*below, *(left[yi][s] for yi in below)}
            return W._interval(xi)

        try:
            for xi, entries in data["kl"]:
                # A pooled entry is found by the pairs as saved; others are built.
                row = {
                    yi: pool.get(tuple(map(tuple, pairs)))
                    or intern({int(e): int(c) for e, c in pairs if int(c)})
                    for yi, pairs in entries
                }
                if not all(type(i) is int and 0 <= i < n for i in (xi, *row)):
                    return False
                _check_row(W, xi, row, self._checked)
                if row.keys() != interval(xi):
                    raise MalformedKL(f"the row of uH({W.format_element(W._el(xi))}) must cover exactly [e, x]")
                loaded[xi] = row
        except (KeyError, TypeError, ValueError):
            return False
        self._h.update(loaded)
        return True
