"""
Finite Coxeter systems with canonical-form elements.

A system is built from a Coxeter matrix (diagonal 1, off-diagonal entries in
{2,3,4,5,6}).  Construction enumerates the whole group as the orbit of one
regular weight rho (coordinate 1 against each simple coroot): W acts simply
transitively on that orbit, so the n-vector x^{-1}(rho) names x.  A
breadth-first search over right multiplication by generators, one reflection
per edge {x, xs}, records multiplication-by-generator tables, lengths,
inverses and printed labels, so that every later operation is table lookup.
Bruhat intervals come from one subword recursion (W_I is [e, w_I]), and a
system holds no state that changes after construction.
Elements are identified with their ShortLex-least reduced word under the
generator order fixed at construction; ``all_elements()`` lists them sorted
by (length, word), and every other ordering in the package derives from that.

Infinite matrices are rejected: the diagram is first checked against the
classification of finite types (any diagram outside the catalog presents an
infinite group).  The rank, then the catalog order, is compared with the
element bound ``DEFAULT_MAX_ELEMENTS``, read at each construction, before
enumerating, and the enumeration enforces the bound again.

Matrix entries equal to 5 force golden-ratio arithmetic in the weight
coordinates; scalars are therefore pairs (a, b) meaning a + b*phi with
phi^2 = phi + 1, which stays exact over plain ints for every allowed entry.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .laurent import LaurentPoly

__all__ = [
    "CoxeterError",
    "InfiniteGroupError",
    "Element",
    "Coset",
    "CoxeterSystem",
]

DEFAULT_MAX_ELEMENTS = 10**7


class CoxeterError(ValueError):
    """Invalid Coxeter matrix or element data."""


class InfiniteGroupError(CoxeterError):
    """The Coxeter matrix presents an infinite group (or exceeds the bound)."""


@dataclass(frozen=True)
class Element:
    """A group element in canonical form.

    ``word`` is the ShortLex-least reduced word (a tuple of generator
    indices); the Coxeter length is its length.  Equality and hashing go
    through the word, so elements compare correctly across system instances
    built from the same matrix.
    """

    word: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Sorting key giving the canonical (length, ShortLex) order."""
        return (len(self.word), self.word)

    def __repr__(self) -> str:
        return f"Element({'.'.join(map(str, self.word)) or 'e'})"


@dataclass(frozen=True)
class Coset:
    """A coset ``a * W_I`` of a standard parabolic subgroup, held as its shortest and
    longest elements, with ``max_rep = min_rep * w_I``.  Its elements are ``min_rep`` times
    ``parabolic_elements(I)``; ``a`` lies in it iff ``coset_max_rep(I, a) == max_rep``."""

    min_rep: Element
    max_rep: Element


# ---------------------------------------------------------------------------
# Finite-type catalog
# ---------------------------------------------------------------------------
#
# Classification of the connected diagrams (all bond labels in {3,..,6}) that
# present finite groups.  Anything else is infinite, which lets construction
# reject e.g. affine matrices without enumerating to the element bound.

_FIXED_ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "H3": 120, "H4": 14400}


def _classify_component(verts: list[int], edges: dict[tuple[int, int], int]) -> tuple[str, int] | None:
    """Return (type label, group order) for a connected diagram, or None."""
    k = len(verts)
    if k == 1:
        return ("A1", 2)
    if len(edges) != k - 1:
        return None  # connected with a cycle
    deg = {v: 0 for v in verts}
    for u, w in edges:
        deg[u] += 1
        deg[w] += 1
    if max(deg.values()) > 3:
        return None
    branch = [v for v in verts if deg[v] == 3]
    big = [(e, m) for e, m in edges.items() if m > 3]
    if len(branch) > 1:
        return None
    if len(branch) == 1:
        if big:
            return None
        # Arm lengths (in edges) from the branch vertex.
        adj = {v: [] for v in verts}
        for u, w in edges:
            adj[u].append(w)
            adj[w].append(u)
        arms = []
        for start in adj[branch[0]]:
            n, prev, cur = 1, branch[0], start
            while deg[cur] == 2:
                nxt = next(x for x in adj[cur] if x != prev)
                prev, cur, n = cur, nxt, n + 1
            arms.append(n)
        p, q, r = sorted(arms)
        if p == 1 and q == 1:
            return (f"D{k}", 2 ** (k - 1) * math.factorial(k))
        if p == 1 and q == 2 and 2 <= r <= 4:
            label = f"E{k}"
            return (label, _FIXED_ORDERS[label])
        return None
    # Path.
    if not big:
        return (f"A{k}", math.factorial(k + 1))
    if len(big) > 1:
        return None
    ((u, w), m) = big[0]
    if k == 2:
        label = {4: "B2", 5: "H2", 6: "G2"}[m]
        return (label, 2 * m)
    terminal = deg[u] == 1 or deg[w] == 1
    if m == 4:
        if terminal:
            return (f"B{k}", 2**k * math.factorial(k))
        if k == 4:
            return ("F4", _FIXED_ORDERS["F4"])
        return None
    if m == 5 and terminal and k in (3, 4):
        label = f"H{k}"
        return (label, _FIXED_ORDERS[label])
    return None


def _components(matrix: Sequence[Sequence[int]]) -> list[int]:
    """The smallest generator of each generator's connected component of the
    Coxeter graph (edges where m(s, t) >= 3), by a min-label fixpoint."""
    n = len(matrix)
    comp = list(range(n))
    for _ in range(n):
        comp = [min(comp[t] for t in range(n) if matrix[s][t] != 2) for s in range(n)]
    return comp


def _classify_matrix(matrix: Sequence[Sequence[int]]) -> tuple[str, int] | None:
    """Classify a full Coxeter matrix; None if the group is infinite."""
    components = _components(matrix)
    labels: list[str] = []
    order = 1
    for c in set(components):
        comp = [t for t, ct in enumerate(components) if ct == c]
        edges = {
            (u, w): matrix[u][w]
            for i, u in enumerate(comp)
            for w in comp[i + 1 :]
            if matrix[u][w] >= 3
        }
        got = _classify_component(comp, edges)
        if got is None:
            return None
        labels.append(got[0])
        order *= got[1]
    labels.sort()
    return ("x".join(labels), order)


# ---------------------------------------------------------------------------
# Built-in matrices
# ---------------------------------------------------------------------------


def _builtin_matrix(code: str) -> list[list[int]]:
    code = code.strip().upper()
    if len(code) < 2 or code[0] not in "ABDGFH" or not code[1:].isdecimal():
        raise CoxeterError(f"unknown type code {code!r} (expected e.g. A3, B2, D4, G2, F4, H3)")
    letter, n = code[0], int(code[1:])
    mins = {"A": 1, "B": 2, "D": 2, "G": 2, "F": 4, "H": 3}
    fixed = {"G": 2, "F": 4, "H": 3}
    if n < mins[letter] or (letter in fixed and n != fixed[letter]):
        raise CoxeterError(f"unsupported rank for type {letter}: {code!r}")
    _check_rank(n)
    m = [[3 if abs(i - j) == 1 else (1 if i == j else 2) for j in range(n)] for i in range(n)]
    if letter == "B":
        m[n - 2][n - 1] = m[n - 1][n - 2] = 4
    elif letter == "D":
        if n >= 3:
            m[n - 2][n - 1] = m[n - 1][n - 2] = 2
            m[n - 3][n - 1] = m[n - 1][n - 3] = 3
        else:
            m[0][1] = m[1][0] = 2
    elif letter == "G":
        m[0][1] = m[1][0] = 6
    elif letter == "F":
        m[1][2] = m[2][1] = 4
    elif letter == "H":
        m[0][1] = m[1][0] = 5
    return m


def _check_rank(n: int) -> None:
    # |W| = |W_J| |W^J| with |W^J| >= 2 for each generator, so a rank-n group has 2^n elements or more.
    if n >= DEFAULT_MAX_ELEMENTS.bit_length():
        raise InfiniteGroupError(f"rank {n} gives at least 2^{n} elements, above the element bound {DEFAULT_MAX_ELEMENTS}")


def _default_names(rank: int) -> tuple[str, ...]:
    # Rank <= 2 uses the textbook letters s, t; larger ranks use s1, s2, ...
    if rank == 1:
        return ("s",)
    if rank == 2:
        return ("s", "t")
    return tuple(f"s{i + 1}" for i in range(rank))


def _uniquely_decodable(names: Sequence[str]) -> bool:
    """Sardinas-Patterson test: no concatenation of names parses two ways."""
    codes = set(names)
    suffixes: set[str] = set()
    for a in codes:
        for b in codes:
            if a != b and b.startswith(a):
                suffixes.add(b[len(a) :])
    seen: set[str] = set()
    while suffixes - seen:
        seen |= suffixes
        nxt: set[str] = set()
        for d in suffixes:
            if d in codes:
                return False
            for c in codes:
                if c.startswith(d):
                    nxt.add(c[len(d) :])
                elif d.startswith(c):
                    nxt.add(d[len(c) :])
        suffixes = nxt - {""}
    return True


# ---------------------------------------------------------------------------
# CoxeterSystem
# ---------------------------------------------------------------------------


class CoxeterSystem:
    """A finite Coxeter group with precomputed Cayley tables.

    Immutable after construction: every query reads the tables built there.

    >>> W = CoxeterSystem.from_type("A2")
    >>> W.order
    6
    >>> [W.format_element(x) for x in W.all_elements()]
    ['e', 's', 't', 'st', 'ts', 'sts']
    """

    def __init__(
        self,
        matrix: Sequence[Sequence[int]],
        names: Sequence[str] | None = None,
    ):
        self._matrix = self._validate_matrix(matrix)
        self.rank = len(self._matrix)
        _check_rank(self.rank)
        self.generator_names = self._validate_names(names, self.rank)
        classified = _classify_matrix(self._matrix)
        if classified is None:
            raise InfiniteGroupError(
                "the Coxeter matrix presents an infinite group (diagram outside the finite catalog)"
            )
        self.type_label, expected_order = classified
        if expected_order > DEFAULT_MAX_ELEMENTS:
            raise InfiniteGroupError(f"order {expected_order} exceeds the element bound {DEFAULT_MAX_ELEMENTS}")
        self._enumerate()
        if self.order != expected_order:
            raise CoxeterError("enumeration disagrees with the catalog order")

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _validate_matrix(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
        try:
            rows = tuple(tuple(row) for row in matrix)
        except TypeError:
            raise CoxeterError("matrix must be a list of rows") from None
        n = len(rows)
        if n == 0:
            raise CoxeterError("rank must be positive")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise CoxeterError(f"matrix is not square: row {i} has length {len(row)}")
            for j, m in enumerate(row):
                if isinstance(m, bool) or not isinstance(m, int):
                    raise CoxeterError(f"matrix entries must be ints, got {m!r}")
                if i == j:
                    if m != 1:
                        raise CoxeterError(f"diagonal entry m({i},{i}) must be 1, got {m}")
                elif m not in (2, 3, 4, 5, 6):
                    raise CoxeterError(f"off-diagonal entry m({i},{j}) must lie in 2..6, got {m}")
                elif rows[j][i] != m:
                    raise CoxeterError(f"matrix is not symmetric at ({i},{j})")
        return rows

    @staticmethod
    def _validate_names(names: Sequence[str] | None, rank: int) -> tuple[str, ...]:
        if names is None:
            return _default_names(rank)
        # A list or tuple only: a dict would give its keys, a set its hash-seed order.
        if not isinstance(names, (list, tuple)):
            raise CoxeterError("generator names must be a list")
        out = tuple(names)
        if len(out) != rank:
            raise CoxeterError(f"expected {rank} generator names, got {len(out)}")
        for name in out:
            if not isinstance(name, str) or name in ("", "e") or "," in name or " " in name or not name.isprintable():
                raise CoxeterError(f"bad generator name {name!r}")
        if len(set(out)) != rank:
            raise CoxeterError("generator names must be distinct")
        if not _uniquely_decodable(out):
            raise CoxeterError(f"generator names {out!r} are ambiguous when concatenated into words")
        return out

    def _enumerate(self) -> None:
        """List W by a breadth-first search over right multiplication: every
        shorter element is handled before x, so x reflects only in its slots
        right[x][s] still open, its ascents, and fills both ends of each edge
        {x, xs}.  A new element's word and label are its parent's plus s."""
        n = self.rank
        # Cartan-style pairing a[s][t] as (int, phi) pairs: a_ss = 2 and for a
        # bond of label m the two directed entries multiply to 4cos^2(pi/m).
        # Asymmetric integer choices are fine on forest diagrams; label 5
        # needs the golden ratio on both sides.
        pair_for = {3: ((-1, 0), (-1, 0)), 4: ((-1, 0), (-2, 0)), 5: ((0, -1), (0, -1)), 6: ((-1, 0), (-3, 0))}
        m = self._matrix
        updates = [
            [(2 * s, 2, 0)] + [(2 * t, *pair_for[m[s][t]][s > t]) for t in range(n) if t != s and m[s][t] >= 3]
            for s in range(n)
        ]

        # x is stored as the weight mu = x^{-1}(rho) in fundamental-weight
        # coordinates, with rho = 1 against every simple coroot.  rho is
        # regular, so W acts simply transitively on its orbit and mu names x.
        # (xs)^{-1}(rho) = s(mu), and the reflection s does mu_t -= mu_s * a_st,
        # with coordinate t at positions 2t (integer part) and 2t + 1 (phi part).
        rho = (1, 0) * n
        index: dict[tuple[int, ...], int] = {rho: 0}
        weights, words, labels, right = [rho], [()], [""], [[-1] * n]
        names, e = self.generator_names, 0
        while e < len(weights):
            row, mu = right[e], weights[e]
            for s in range(n):
                if row[s] >= 0:
                    continue  # a descent: filled when xs was handled
                out, xa, xb = list(mu), mu[2 * s], mu[2 * s + 1]
                for t, ca, cb in updates[s]:
                    out[t] -= ca * xa + cb * xb
                    out[t + 1] -= ca * xb + cb * (xa + xb)
                img = tuple(out)
                i = index.get(img)
                if i is None:
                    i = len(weights)
                    if i >= DEFAULT_MAX_ELEMENTS:
                        raise InfiniteGroupError(f"enumeration exceeded the element bound {DEFAULT_MAX_ELEMENTS}")
                    index[img] = i
                    weights.append(img)
                    words.append(words[e] + (s,))
                    labels.append(labels[e] + names[s])
                    right.append([-1] * n)
                row[s], right[i][s] = i, e
            e += 1
        labels[0] = "e"

        self._words, self._labels, self._right = words, labels, right
        self._lengths = [len(w) for w in words]
        self._elements = tuple(Element(w) for w in words)
        self._index_by_word = {w: i for i, w in enumerate(words)}
        # x = us with s the last letter of x's word, and u = xs precedes x, so
        # tx = (tu)s and x^{-1} = s u^{-1}, where u^{-1} also precedes x.
        left, inv = [right[0][:]], [0]
        for i in range(1, len(words)):
            s = words[i][-1]
            u = right[i][s]
            left.append([right[j][s] for j in left[u]])
            inv.append(left[inv[u]][s])
        self._left, self._inv = left, inv

    # -- alternate constructors -----------------------------------------

    @classmethod
    def from_type(cls, code: str) -> CoxeterSystem:
        """Build a standard system from a type code such as "A3" or "H3"."""
        return cls(_builtin_matrix(code))

    @classmethod
    def from_json(cls, data: dict) -> CoxeterSystem:
        """Build from the JSON shape {"rank": n, "matrix": [[..]], "names": [..]}."""
        try:
            rank = data["rank"]
            matrix = data["matrix"]
        except (TypeError, KeyError) as exc:
            raise CoxeterError(f"matrix JSON needs 'rank' and 'matrix' keys: {exc}")
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise CoxeterError(f"rank must be an int, got {rank!r}")
        rows = cls._validate_matrix(matrix)
        if len(rows) != rank:
            raise CoxeterError(f"declared rank {rank} but matrix has {len(rows)} rows")
        return cls(rows, data.get("names"))

    @classmethod
    def from_json_file(cls, path) -> CoxeterSystem:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    # -- basic accessors -------------------------------------------------

    @property
    def coxeter_matrix(self) -> tuple[tuple[int, ...], ...]:
        return self._matrix

    @property
    def order(self) -> int:
        return len(self._elements)

    @property
    def identity(self) -> Element:
        return self._elements[0]

    @property
    def generators(self) -> tuple[Element, ...]:
        return tuple(self._elements[self._right[0][s]] for s in range(self.rank))

    @property
    def fingerprint(self) -> str:
        """Hash of the matrix plus generator order; keys persisted caches."""
        blob = json.dumps(
            {"matrix": [list(r) for r in self._matrix], "names": list(self.generator_names)},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def __repr__(self) -> str:
        return f"CoxeterSystem({self.type_label}, order {self.order})"

    def _id(self, el: Element) -> int:
        i = self._index_by_word.get(el.word)
        if i is None:
            raise CoxeterError(f"{el!r} is not a canonical element of {self!r}")
        return i

    def _el(self, i: int) -> Element:
        return self._elements[i]

    # -- words and parsing ------------------------------------------------

    def _gen(self, s: int) -> int:
        # s, once checked to be a generator index: an int (not a bool) in range.
        if isinstance(s, bool) or not isinstance(s, int) or not 0 <= s < self.rank:
            raise CoxeterError(f"bad generator index {s!r}")
        return s

    def element(self, word: Iterable[int]) -> Element:
        """Canonicalize an arbitrary word in generator indices."""
        i = 0
        for s in word:
            i = self._right[i][self._gen(s)]
        return self._elements[i]

    def generator_index(self, name: str) -> int:
        try:
            return self.generator_names.index(name)
        except ValueError:
            raise CoxeterError(f"unknown generator name {name!r}") from None

    def parse_word(self, text: str) -> tuple[int, ...]:
        """Tokenize concatenated generator names into indices; "e" is empty.

        One left-to-right pass maps each position reached to the last name of
        the word that spells ``text`` up to it.  Name sets are validated to be
        uniquely decodable, so no prefix of ``text`` has two such words, and
        the word of ``text`` is read back from its end.
        """
        if text == "e" or text == "":
            return ()
        back: dict[int, tuple[int, int]] = {0: (0, -1)}  # end -> (start, name index)
        for pos in range(len(text)):
            if pos in back:
                for idx, name in enumerate(self.generator_names):
                    if text.startswith(name, pos):
                        back[pos + len(name)] = (pos, idx)
        pos, word = len(text), []
        if pos not in back:
            raise CoxeterError(f"cannot parse element word {text!r}")
        while pos:
            pos, idx = back[pos]
            word.append(idx)
        return tuple(reversed(word))

    def parse_element(self, text: str) -> Element:
        """Parse a word of concatenated generator names; "e" is the identity."""
        return self.element(self.parse_word(text))

    def format_element(self, el: Element) -> str:
        """Inverse of :meth:`parse_element` on canonical elements."""
        return self._labels[self._id(el)]

    # -- group operations --------------------------------------------------

    def multiply(self, a: Element, b: Element) -> Element:
        i = self._id(a)
        self._id(b)
        for s in b.word:
            i = self._right[i][s]
        return self._elements[i]

    def inverse(self, a: Element) -> Element:
        return self._elements[self._inv[self._id(a)]]

    def _table(self, side: str) -> list[list[int]]:
        # The multiply-by-generator table of `side`, once side is checked.
        if side == "right":
            return self._right
        if side == "left":
            return self._left
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def apply_gen(self, a: Element, s: int, side: str = "right") -> Element:
        return self._elements[self._table(side)[self._id(a)][self._gen(s)]]

    def descents(self, a: Element, side: str = "right") -> frozenset[int]:
        """Generator indices s with l(as) < l(a) (or l(sa) < l(a) on the left)."""
        row, i, lengths = self._table(side), self._id(a), self._lengths
        return frozenset(s for s, j in enumerate(row[i]) if lengths[j] < lengths[i])

    def all_elements(self) -> tuple[Element, ...]:
        """Every element once, sorted by (length, ShortLex word)."""
        return self._elements

    def bruhat_leq(self, y: Element, x: Element) -> bool:
        """Bruhat order, via the lifting property on the left."""
        return self._bruhat_leq(self._id(y), self._id(x))

    def _bruhat_leq(self, yi: int, xi: int) -> bool:
        lengths, left, words = self._lengths, self._left, self._words
        # Take s with sx < x; then y <= x iff (sy <= sx if sy < y else y <= sx).
        while lengths[yi] < lengths[xi]:
            s = words[xi][0]
            xi = left[xi][s]
            sy = left[yi][s]
            if lengths[sy] < lengths[yi]:
                yi = sy
        return yi == xi

    def _interval(self, xi: int) -> set[int]:
        # The ids of [e, x]: fold x's reduced word from the right, where each
        # step has su > u and so [e, su] = [e, u] | s[e, u] (Bjorner-Brenti, ch. 2).
        left, below = self._left, {0}
        for s in reversed(self._words[xi]):
            below |= {left[yi][s] for yi in below}
        return below

    def _graph_automorphisms(self) -> list[list[int]]:
        # The id tables x -> sigma(x) of the permutations sigma of the
        # generators with m(sigma s, sigma t) = m(s, t) that map each connected
        # component of the Coxeter graph to itself; the identity comes first.
        m, n = self._matrix, self.rank
        comp = _components(m)
        perms: list[tuple[int, ...]] = [()]
        for k in range(n):
            perms = [
                p + (t,)
                for p in perms
                for t in range(n)
                if comp[t] == comp[k] and t not in p and all(m[t][p[j]] == m[k][j] for j in range(k))
            ]
        # sigma(x) for x = us with s its last letter is sigma(u) sigma(s), and
        # u = xs precedes x in id order.
        right, words = self._right, self._words
        tables = []
        for sigma in perms:
            g = [0] * self.order
            for i in range(1, self.order):
                s = words[i][-1]
                g[i] = right[g[right[i][s]]][sigma[s]]
            tables.append(g)
        return tables

    # -- parabolic subgroups and cosets -------------------------------------

    def _check_subset(self, I: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted({self._gen(s) for s in I}))

    def parabolic_elements(self, I: Iterable[int]) -> tuple[Element, ...]:
        """The standard parabolic subgroup W_I = [e, w_I], sorted by (length, word)."""
        w_I = self._ascend(0, self._check_subset(I))
        return tuple(self._elements[i] for i in sorted(self._interval(w_I)))

    def longest_element(self, I: Iterable[int] | None = None) -> Element:
        """The longest element of W_I (of the whole group when I is None)."""
        I = tuple(range(self.rank)) if I is None else self._check_subset(I)
        return self._elements[self._ascend(0, I)]

    def _ascend(self, i: int, I: tuple[int, ...]) -> int:
        lengths, right = self._lengths, self._right
        while True:
            for s in I:
                j = right[i][s]
                if lengths[j] > lengths[i]:
                    i = j
                    break
            else:
                return i

    def coset_max_rep(self, I: Iterable[int], a: Element) -> Element:
        """Longest element of a*W_I; every s in I is one of its right descents."""
        return self._elements[self._ascend(self._id(a), self._check_subset(I))]

    def coset_min_rep(self, I: Iterable[int], a: Element) -> Element:
        """Shortest element of a*W_I; no s in I is one of its right descents."""
        I = self._check_subset(I)
        return self.multiply(self.coset_max_rep(I, a), self.longest_element(I))

    def _cosets(self, I: tuple[int, ...]) -> tuple[Coset, ...]:
        # The max reps are the ids with every s in I a right descent, so
        # filtering the ids once per s lists the cosets in max-rep id order;
        # each min rep is its max rep times w_I, one step per letter of w_I.
        right, els, word = self._right, self._elements, self._words[self._ascend(0, I)]
        ids = range(self.order)
        for s in I:
            ids = [i for i in ids if right[i][s] < i]
        out = []
        for i in ids:
            j = i
            for s in word:
                j = right[j][s]
            out.append(Coset(els[j], els[i]))
        return tuple(out)

    def cosets(self, I: Iterable[int]) -> tuple[Coset, ...]:
        """Partition of the group into cosets a*W_I, sorted by minimal rep: the
        max reps are the elements with every s in I as a right descent, and
        each min rep is its max rep times w_I."""
        return tuple(sorted(self._cosets(self._check_subset(I)), key=lambda c: c.min_rep.sort_key))

    def balanced_poincare(self, I: Iterable[int]) -> LaurentPoly:
        """Sum of v^(l(w_I) - 2 l(z)) over z in W_I; bar-invariant by symmetry."""
        members = self.parabolic_elements(I)
        top = members[-1].length
        return LaurentPoly((top - 2 * z.length, 1) for z in members)
