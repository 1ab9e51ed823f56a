import hashlib
import itertools
import json
import operator
import os
import random
import sys
from pathlib import Path

import pytest

from coxkl.blocks import andersen_table, make_block
from coxkl.coxeter import CoxeterError, CoxeterSystem
from coxkl.hecke import CACHE_SCHEMA, HeckeAlgebra, HeckeElt, MalformedKL, _symmetries
from coxkl.laurent import LaurentPoly
from coxkl.lefschetz import ih_poincare, lefschetz_audit

from oracles import _hecke_rmul_gen, kl_basis_bruteforce, padd, pbar, pmul

v = LaurentPoly.monomial(1)
one = LaurentPoly.one()


def H(W, word):
    return HeckeElt.standard(W, W.parse_element(word))


def all_subsets(rank):
    out = []
    for r in range(rank + 1):
        out.extend(itertools.combinations(range(rank), r))
    return out


# -- standard basis multiplication ------------------------------------------


def test_mul_by_gen_examples(system):
    W = system("A2")
    assert H(W, "e").mul_by_gen(0) == H(W, "s")
    quad = H(W, "s").mul_by_gen(0)
    assert quad == H(W, "e") + (LaurentPoly({-1: 1, 1: -1})) * H(W, "s")
    assert H(W, "st").mul_by_gen(1) == H(W, "s") + LaurentPoly({-1: 1, 1: -1}) * H(W, "st")
    # left side
    assert H(W, "st").mul_by_gen(0, "left") == H(W, "t") + LaurentPoly({-1: 1, 1: -1}) * H(W, "st")
    assert H(W, "t").mul_by_gen(0, "left") == H(W, "st")
    with pytest.raises(ValueError):
        H(W, "t").mul_by_gen(0, "up")
    with pytest.raises(CoxeterError):
        H(W, "t").mul_by_gen(-1)


def test_repr_and_is_zero(system):
    W = system("A2")
    hs = HeckeElt.standard(W, W.generators[0])
    nothing = HeckeElt(W, {})
    assert repr(hs) == "HeckeElt((1)H[s])"
    assert repr(nothing) == "HeckeElt(0)"
    assert not hs.is_zero and nothing.is_zero
    assert (hs - hs).is_zero


def test_product_examples(system, algebra):
    W, A = system("A2"), algebra("A2")
    a = H(W, "st") + v * H(W, "s")
    assert a * H(W, "e") == a
    us = A.kl_element(W.parse_element("s"))
    ut = A.kl_element(W.parse_element("t"))
    assert us * us == LaurentPoly({1: 1, -1: 1}) * us
    assert us * ut * us == A.kl_element(W.parse_element("sts")) + us
    # product respects the word-by-word fold
    assert H(W, "s") * H(W, "ts") == H(W, "s").mul_by_gen(1).mul_by_gen(0)


def test_product_requires_same_system(system):
    with pytest.raises(CoxeterError):
        H(system("A2"), "s") * H(system("B2"), "s")


def test_other_operands_are_refused(system):
    # A float or a string is no Hecke element: == answers False, + and * TypeError.
    a = H(system("A2"), "s")
    assert (a == 1.5) is False and a != "x"
    for op in (lambda: a + "x", lambda: "x" + a, lambda: a * "x", lambda: a * 1.5, lambda: a - 1):
        with pytest.raises(TypeError):
            op()


def test_elements_over_different_systems_do_not_mix(system):
    # Ids of two systems never meet: +, - and * raise and == is false unless
    # the Coxeter matrices and the generator names agree.
    W = system("A2")
    a = H(W, "s")
    renamed = CoxeterSystem([[1, 3], [3, 1]], ["a", "b"])
    for other in (H(system("B2"), "s"), H(system("B2"), "st"), HeckeElt.standard(renamed, W.generators[0])):
        assert a != other
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(CoxeterError):
                op(a, other)
        with pytest.raises(CoxeterError):
            HeckeAlgebra(other.system).to_kl_basis(a)
    twin = CoxeterSystem.from_type("A2")
    assert H(twin, "s") == a and hash(H(twin, "s")) == hash(a)
    assert H(twin, "t") + a == H(W, "s") + H(W, "t")


def test_bar_examples(system):
    W = system("A2")
    assert H(W, "e").bar() == H(W, "e")
    bs = H(W, "s").bar()
    assert bs == H(W, "s") + LaurentPoly({1: 1, -1: -1}) * H(W, "e")
    # bar(H_s) is the inverse of H_s
    assert H(W, "s") * bs == H(W, "e")
    assert H(W, "st").bar().bar() == H(W, "st")


@pytest.mark.parametrize("code", ["A2", "B2"])
def test_bar_is_ring_homomorphism(code, system):
    W = system(code)
    rng = random.Random(7)
    els = W.all_elements()
    for _ in range(20):
        a = HeckeElt(W, {rng.choice(els): LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})})
        b = HeckeElt(W, {rng.choice(els): LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})})
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def _random_elt(W, rng):
    # A few terms on random elements, each with a few random Laurent terms.
    els = W.all_elements()
    return {
        rng.choice(els): {rng.randint(-3, 3): rng.choice([-2, -1, 1, 3]) for _ in range(rng.randint(1, 3))}
        for _ in range(rng.randint(1, 8))
    }


def _oracle_fold(W, a, b, bar_h=False):
    # sum over the terms c H_x of b of a * H_s1 ... H_sk * c, one oracle step per
    # letter of x; with bar_h each letter multiplies by bar(H_s) = H_s + (v - v^-1).
    out = {}
    for x, c in b.items():
        acc = a
        for s in x.word:
            nxt = _hecke_rmul_gen(W, acc, s)
            if bar_h:
                for z, p in acc.items():
                    nxt[z] = padd(padd(nxt.get(z, {}), p, shift=1), p, factor=-1, shift=-1)
            acc = nxt
        for z, p in acc.items():
            out[z] = padd(out.get(z, {}), pmul(p, pbar(c) if bar_h else c))
    return {z: p for z, p in out.items() if p}


def _elt(W, raw):
    return HeckeElt(W, {x: LaurentPoly(p) for x, p in raw.items()})


@pytest.mark.parametrize("code", ["B3", "H3"])
def test_product_and_bar_match_the_oracle(code, system, algebra):
    # Random supports leave gaps in the prefix tree of their words; the KL
    # element of the longest element has every prefix.
    W, rng = system(code), random.Random(19)
    w0 = {x: p._c for x, p in algebra(code).kl_element(W.longest_element()).terms.items()}
    pairs = [(_random_elt(W, rng), _random_elt(W, rng)) for _ in range(12)]
    pairs += [(w0, _random_elt(W, rng)), (_random_elt(W, rng), w0)]
    for a, b in pairs:
        assert _elt(W, a) * _elt(W, b) == _elt(W, _oracle_fold(W, a, b))
        assert _elt(W, b).bar() == _elt(W, _oracle_fold(W, {W.identity: {0: 1}}, b, bar_h=True))


# -- KL basis -----------------------------------------------------------------


def test_kl_element_examples(system, algebra):
    W, A = system("A2"), algebra("A2")
    assert A.kl_element(W.identity) == H(W, "e")
    assert A.kl_element(W.parse_element("s")) == H(W, "s") + v * H(W, "e")
    expect = (
        H(W, "sts")
        + v * (H(W, "st") + H(W, "ts"))
        + v**2 * (H(W, "s") + H(W, "t"))
        + v**3 * H(W, "e")
    )
    assert A.kl_element(W.parse_element("sts")) == expect


def test_h_poly_examples(system, algebra):
    W, A = system("A2"), algebra("A2")
    x = W.parse_element("sts")
    assert A.h_poly(x, x) == one
    assert A.h_poly(W.identity, x) == v**3
    W3, A3 = system("A3"), algebra("A3")
    x3 = W3.parse_element("s2s1s3s2")
    assert A3.h_poly(W3.parse_element("s2"), x3) == v + v**3
    # zero when y is not below x
    assert A3.h_poly(W3.parse_element("s1s2s1"), W3.parse_element("s3")) == 0


def test_kl_polynomial_examples(system, algebra):
    W, A = system("A2"), algebra("A2")
    for x in W.all_elements():
        for y in W.all_elements():
            expected = one if W.bruhat_leq(y, x) else LaurentPoly.zero()
            assert A.kl_polynomial(y, x) == expected
    W3, A3 = system("A3"), algebra("A3")
    x3 = W3.parse_element("s2s1s3s2")
    assert A3.kl_polynomial(W3.parse_element("s2"), x3) == one + v
    assert A3.kl_polynomial(W3.identity, x3) == one + v


@pytest.mark.parametrize("code", ["A3", "B2", "A4"])
def test_kl_polynomial_at_longest_element(code, system, algebra):
    W, A = system(code), algebra(code)
    w0 = W.longest_element()
    for y in W.all_elements():
        assert A.kl_polynomial(y, w0) == one


def test_mu_examples(system, algebra):
    W, A = system("A2"), algebra("A2")
    assert A.mu(W.identity, W.parse_element("s")) == 1
    assert A.mu(W.identity, W.parse_element("sts")) == 0
    W3, A3 = system("A3"), algebra("A3")
    assert A3.mu(W3.parse_element("s2"), W3.parse_element("s2s1s3s2")) == 1


@pytest.mark.parametrize("code", ["A3", "B2"])
def test_kl_element_invariants(code, system, algebra):
    W, A = system(code), algebra(code)
    for x in W.all_elements():
        u = A.kl_element(x)
        assert u.bar() == u
        assert u.coeff(x) == one
        for y, p in u.terms.items():
            if y == x:
                continue
            assert W.bruhat_leq(y, x)
            assert p.min_exp >= 1
            assert all(c > 0 for _, c in p.pairs())
            assert all((e - (x.length - y.length)) % 2 == 0 for e, _ in p.pairs())
        # support is the whole lower Bruhat interval
        assert set(u.support()) == {y for y in W.all_elements() if W.bruhat_leq(y, x)}


@pytest.mark.parametrize("code", ["A1", "A2", "A3", "B2", "B3"])
def test_kl_matches_bruteforce_solver(code, system, algebra):
    W, A = system(code), algebra(code)
    solved = kl_basis_bruteforce(W)
    for x in W.all_elements():
        expect = {y: LaurentPoly(p) for y, p in solved[x].items()}
        assert dict(A.kl_element(x).terms) == expect


KL_GOLDEN_GROUPS = [
    "A1", "A2", "B2", "G2", "A3", "B3", "H3", "A4", "B4", "D4", "F4", "A5", "D5", "I2(5)", "A1xB2",
    "A1xA1xA1", "A2xA2", "A3 reordered", "D4 reordered",
]


def kl_digest(A):
    """Entry count and SHA-256 of a full KL memo, rows and entries by id."""
    # Each line is json.dumps([x, [[y, sorted pairs of h_{y,x}], ...]]) with its
    # default separators, built from the JSON of each pool entry, made once.
    digest, count = hashlib.sha256(), 0
    text = [json.dumps(sorted(p.items())) for p in A._polys]
    for xi, row in sorted(A._h.items()):
        count += len(row)
        line = ", ".join(f"[{yi}, {text[i]}]" for yi, i in sorted(row.items()))
        digest.update(f"[{xi}, [{line}]]\n".encode())
    return count, digest.hexdigest()


def test_kl_golden():
    # Entry count and kl_digest of the full table of every listed group,
    # recorded from the recursion that kept one dict per memo entry.
    golden = json.loads((Path(__file__).parent / "data" / "kl_golden.json").read_text())
    assert [g["group"] for g in golden] == KL_GOLDEN_GROUPS
    for g in golden:
        W = CoxeterSystem(g["matrix"]) if "matrix" in g else CoxeterSystem.from_type(g["group"])
        A = HeckeAlgebra(W)
        A.kl_table()
        assert kl_digest(A) == (g["entries"], g["sha256"]), g["group"]


# Groups whose symmetry group G = <inversion> x Aut0 is worth a look: Aut0 is
# S3 on D4, trivial on B_n (n >= 3) and H3, a flip on each A2 of A2xA2
# (generators interleaved), and trivial on A1xA1xA1, whose swaps of
# components are left out.
SYM_GROUPS = {
    "D4": 12, "A5": 4, "F4": 4, "G2": 4, "I2(5)": 4, "B4": 2, "H3": 2,
    "A1xA1xA1": 2, "A2xA2": 8, "A3 reordered": 4,
}
SYM_MATRICES = {
    "I2(5)": [[1, 5], [5, 1]],
    "A1xA1xA1": [[1, 2, 2], [2, 1, 2], [2, 2, 1]],
    "A2xA2": [[1, 2, 3, 2], [2, 1, 2, 3], [3, 2, 1, 2], [2, 3, 2, 1]],
    "A3 reordered": [[1, 3, 3], [3, 1, 2], [3, 2, 1]],
}


def sym_system(system, name):
    return CoxeterSystem(SYM_MATRICES[name]) if name in SYM_MATRICES else system(name)


@pytest.mark.parametrize("name", sorted(SYM_GROUPS))
def test_symmetry_group_order(name, system):
    assert len(_symmetries(sym_system(system, name))) + 1 == SYM_GROUPS[name]


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "H3", "G2", "I2(5)", "A1xA1xA1", "A2xA2", "A3 reordered"])
def test_symmetry_tables_intertwine(name, system):
    # Each table is a length-preserving bijection g of W that sends the
    # generators to generators by a sigma with m(sigma s, sigma t) = m(s, t),
    # and either g(xs) = g(x) sigma(s) for all x, s (a graph automorphism) or
    # g(xs) = sigma(s) g(x) (the inversion times one).  The inversion itself
    # is there, and it swaps _right and _left.
    W = sym_system(system, name)
    n, right, left, lengths, m = W.order, W._right, W._left, W._lengths, W.coxeter_matrix
    gens = right[0]
    for g, back in _symmetries(W):
        assert sorted(g) == list(range(n)) and all(back[g[i]] == i for i in range(n))
        assert all(lengths[g[i]] == lengths[i] for i in range(n))
        sigma = [gens.index(g[t]) for t in gens]
        assert all(m[sigma[s]][sigma[t]] == m[s][t] for s in range(W.rank) for t in range(W.rank))
        img = {(i, s): g[right[i][s]] for i in range(n) for s in range(W.rank)}
        auto = all(img[i, s] == right[g[i]][sigma[s]] for i, s in img)
        anti = all(img[i, s] == left[g[i]][sigma[s]] for i, s in img)
        assert auto or anti, name
    assert W._inv in [g for g, _ in _symmetries(W)]
    assert all(W._inv[right[i][s]] == left[W._inv[i]][s] for i in range(n) for s in range(W.rank))


def test_derived_rows_are_checked(system):
    # The row of x^-1 is read off the memo row of x through the inversion, and
    # it is checked like a computed row: a tampered h_{e,st} = v^5 (l(st) = 2)
    # makes the row of ts raise MalformedKL.
    W = system("A2")
    A = HeckeAlgebra(W)
    st, ts = W._id(W.parse_element("st")), W._id(W.parse_element("ts"))
    A._kl_raw(st)
    A._h[st][0] = A._intern({5: 1})
    with pytest.raises(MalformedKL):
        A._kl_raw(ts)
    assert ts not in A._h


def test_rows_need_p0_one(system):
    # P_{y,x}(0) = 1 holds on every row, not only on loaded ones: a tampered
    # h_{e,st} = 5v^2 has the degree and parity of l(st) = 2 but P(0) = 5, and
    # the row of ts, read off the row of st, raises MalformedKL.
    W = system("A2")
    A = HeckeAlgebra(W)
    st, ts = W._id(W.parse_element("st")), W._id(W.parse_element("ts"))
    A._kl_raw(st)
    A._h[st][0] = A._intern({2: 5})
    with pytest.raises(MalformedKL):
        A._kl_raw(ts)
    assert ts not in A._h


def test_derived_rows_share_the_pool(system):
    # Rows read through a symmetry count as computed and reuse the pool
    # indices of the row they are read from.
    W = system("D4")
    A = HeckeAlgebra(W)
    A.kl_table()
    assert A.computed_count == W.order
    for g, _ in A._sym:
        for xi, row in A._h.items():
            other = A._h[g[xi]]
            assert all(other[g[yi]] == i for yi, i in row.items())


def test_equal_entries_are_one_pooled_dict(system):
    # A5 has 121 distinct h_{y,x} among its 98,407 memo entries, each named
    # by one pool index.
    A = HeckeAlgebra(system("A5"))
    A.kl_table()
    entries = [i for row in A._h.values() for i in row.values()]
    assert len(entries) == 98407
    assert len(set(entries)) == len({tuple(sorted(A._polys[i].items())) for i in entries}) == 121


@pytest.mark.parametrize("code, bound", [("B4", 1000), ("A5", 400)])
def test_rows_pivot_on_the_smallest_held_row(system, code, bound):
    # A cold table leaves B4 907 _ops entries and A5 316; pivoting every row on
    # the first letter of its word would leave 1,479 and 738.
    A = HeckeAlgebra(system(code))
    A.kl_table()
    assert len(A._ops) <= bound


def test_a_lone_row_computes_no_row_to_choose_its_pivot(system):
    # With no row of s1x or s3x held, x = s1s3 pivots on its first letter s1:
    # only the rows of s3 and e are computed on the way, not that of s1.
    W = system("A3")
    A = HeckeAlgebra(W)
    A._kl_raw(W._id(W.parse_element("s1s3")))
    assert set(A._h) == {W._id(W.parse_element(w)) for w in ("e", "s3", "s1s3")}


def test_results_are_copies_of_the_pool(system):
    # Mutating what h_poly, kl_element and andersen_table return leaves the
    # memo, and every later result, unchanged.
    W = system("A3")
    A = HeckeAlgebra(W)
    A.kl_table()
    before = kl_digest(A)
    block = make_block(W, [0])
    table = andersen_table(block, A)
    cells = {k: dict(c) for k, c in table.cells.items()}
    x = W.parse_element("s2s1s3s2")
    A.h_poly(W.identity, x)._c[2] = 9
    for p in A.kl_element(x).terms.values():
        p._c[7] = 1
    A.kl_element(x).coeff(W.identity)._c[3] = 1
    for p in (A.kl_element(x) * A.kl_element(x)).terms.values():
        p._c[5] = 1
    for p in (A.kl_element(x) + H(W, "s1")).terms.values():
        p._c[6] = 1
    for cell in table.cells.values():
        cell[99] = 1
    assert kl_digest(A) == before
    assert A.h_poly(W.identity, x) == v**2 + v**4
    assert andersen_table(block, A).cells == cells


def test_fresh_memo_dicts_never_meet_stale_ops(system):
    # Pool arithmetic is memoized on pool indices.  Build the table in eight
    # rounds, each on top of the memo rows and _ops of the rounds before; the
    # table must still be right.
    W = system("B3")
    A = HeckeAlgebra(W)
    for stop in range(W.order // 8, W.order + 1, W.order // 8):
        for xi in range(stop):
            A._kl_raw(xi)
    solved = kl_basis_bruteforce(W)
    for x in W.all_elements():
        assert dict(A.kl_element(x).terms) == {y: LaurentPoly(p) for y, p in solved[x].items()}


@pytest.mark.parametrize("code", ["A3", "B2"])
def test_coset_constancy(code, system, algebra):
    # P_{y,x} = P_{yz,x} whenever every generator of W_I is a right descent of x.
    W, A = system(code), algebra(code)
    for I in all_subsets(W.rank):
        sub = W.parabolic_elements(I)
        for x in W.all_elements():
            if not set(I) <= W.descents(x, "right"):
                continue
            for y in W.all_elements():
                p = A.kl_polynomial(y, x)
                for z in sub:
                    assert A.kl_polynomial(W.multiply(y, z), x) == p


def test_absorption_identity(system, algebra):
    # uH(x) * uH(w_I) = balanced_poincare(I) * uH(x) when I lies in the
    # right descents of x.
    W, A = system("A3"), algebra("A3")
    for I in all_subsets(W.rank):
        w_iota = W.longest_element(I)
        bp = W.balanced_poincare(I)
        u_iota = A.kl_element(w_iota)
        for x in W.all_elements():
            if set(I) <= W.descents(x, "right"):
                ux = A.kl_element(x)
                assert ux * u_iota == bp * ux


# -- basis conversion -----------------------------------------------------------


def test_to_kl_basis_examples(system, algebra):
    W, A = system("A2"), algebra("A2")
    assert A.to_kl_basis(H(W, "e")) == {W.identity: one}
    got = A.to_kl_basis(H(W, "s"))
    assert got == {W.identity: -v, W.parse_element("s"): one}
    back = A.to_kl_basis(LaurentPoly({1: 1, -1: 1}) * A.kl_element(W.parse_element("s")))
    assert back == {W.parse_element("s"): LaurentPoly({1: 1, -1: 1})}


@pytest.mark.parametrize("code", ["A3", "B2", "H3", "B3"])
def test_to_kl_basis_roundtrip_random(code, system, algebra):
    W, A = system(code), algebra(code)
    rng = random.Random(41)
    els = W.all_elements()
    for _ in range(15):
        terms = {
            rng.choice(els): LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4)})
            for _ in range(4)
        }
        a = HeckeElt(W, terms)
        coeffs = A.to_kl_basis(a)
        assert list(coeffs) == sorted(coeffs, key=lambda z: (z.length, z.word))
        total = HeckeElt(W, {})
        for x, c in coeffs.items():
            total = total + c * A.kl_element(x)
        assert total == a


def test_bott_samelson_examples(system, algebra):
    W, A = system("A2"), algebra("A2")
    assert A.bott_samelson([]) == {W.identity: one}
    assert A.bott_samelson([0, 0]) == {W.parse_element("s"): LaurentPoly({1: 1, -1: 1})}
    assert A.bott_samelson([0, 1, 0]) == {
        W.parse_element("s"): one,
        W.parse_element("sts"): one,
    }


def test_bott_samelson_rejects_bad_generator(system, algebra):
    W, A = system("A2"), algebra("A2")
    for word in ([0, 2], [-1], [1, 0, 5]):
        with pytest.raises(CoxeterError):
            A.bott_samelson(word)


@pytest.mark.parametrize("code", ["A3", "B2"])
def test_bott_samelson_positivity_random(code, system, algebra):
    W, A = system(code), algebra(code)
    rng = random.Random(20250808)
    for _ in range(60):
        word = [rng.randrange(W.rank) for _ in range(rng.randint(0, 8))]
        for c in A.bott_samelson(word).values():
            assert c.bar() == c
            assert all(n > 0 for _, n in c.pairs())


# -- cache persistence -------------------------------------------------------


def test_cache_roundtrip(tmp_path, system):
    W = system("A3")
    a1 = HeckeAlgebra(W)
    a1.kl_table()
    path = tmp_path / "kl.json"
    a1.save_cache(path)

    a2 = HeckeAlgebra(W)
    assert a2.load_cache(path)
    assert a2.computed_count == 0
    # Loaded entries go through the pool: no content is pooled twice, every
    # unit entry holds the one unit index, and the table is the computed one.
    entries = [i for row in a2._h.values() for i in row.values()]
    assert len(set(entries)) == len({tuple(sorted(a2._polys[i].items())) for i in entries}) == 10
    assert len(a2._polys) == len(a2._pool) == 10
    assert [i for i in entries if a2._polys[i] == {0: 1}] == [a2._pool[((0, 1),)]] * W.order
    assert kl_digest(a2) == kl_digest(a1)
    for x in W.all_elements():
        for y in W.all_elements():
            assert a2.h_poly(y, x) == a1.h_poly(y, x)
    assert a2.computed_count == 0
    # The file lists the 10 polynomials once each, numbered by first use, and
    # 13 of the 24 rows, one per orbit of G, as positions over [e, x]; the
    # load read the other 11 through G, with the tables the algebra built.
    data = json.loads(path.read_text())
    assert data["h"][:4] == [[[0, 1]], [[1, 1]], [[2, 1]], [[3, 1]]] and len(data["h"]) == 10
    assert [xi for xi, _ in data["kl"]] == [0, 1, 2, 4, 5, 9, 10, 11, 15, 18, 20, 21, 23]
    assert [ks for xi, ks in data["kl"] if xi == 4] == [[2, 1, 1, 0]]
    assert sorted(a2._h) == list(range(W.order))
    assert [g for g, _ in a2._sym] == [g for g, _ in _symmetries(W)]
    a2.save_cache(tmp_path / "kl2.json")
    assert (tmp_path / "kl2.json").read_bytes() == path.read_bytes()
    # Ids are positions in all_elements(): a change of that order or of the
    # file format without a schema bump must fail here first.
    raw = path.read_bytes()
    assert (len(raw), hashlib.sha256(raw).hexdigest()) == (
        537, "9c3ed1dc60d43f6682c20e2a0fc933def2bddba8f69c8d646976e357e7d091a5"
    )


def test_threads_saving_one_path_do_not_collide(tmp_path, system):
    # One temp name per process let a thread rename or remove another's temp
    # file (FileNotFoundError) or truncate it while it was being moved into place.
    import threading

    A = HeckeAlgebra(system("A3"))
    A.kl_table()
    path, errors = tmp_path / "kl.json", []
    A.save_cache(tmp_path / "ref.json")

    def save_many():
        for _ in range(50):
            try:
                A.save_cache(path)
            except OSError as exc:
                errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=save_many) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kl.json", "ref.json"]


def orbit(A, xi):
    """The orbit of x under the symmetry group G of A, as ids."""
    return {xi, *(g[xi] for g, _ in A._sym)}


def save_every_row(A, path):
    """Write the memo of A in the cache format with every row listed, as a
    save_cache that wrote one row per memo row would."""
    A.save_cache(path)
    data = json.loads(path.read_text())
    number = {}
    data["kl"] = [[xi, [number.setdefault(i, len(number)) for _, i in sorted(row.items())]] for xi, row in sorted(A._h.items())]
    data["h"] = [sorted(A._polys[i].items()) for i in number]
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


@pytest.mark.parametrize("group", KL_GOLDEN_GROUPS)
def test_saved_table_lists_one_row_per_orbit(tmp_path, group):
    # A full table is saved as one row per G-orbit, that of its smallest id,
    # and loads, computing nothing, to the golden table.
    (g,) = [g for g in json.loads((Path(__file__).parent / "data" / "kl_golden.json").read_text()) if g["group"] == group]
    W = CoxeterSystem(g["matrix"]) if "matrix" in g else CoxeterSystem.from_type(group)
    A = HeckeAlgebra(W)
    A.kl_table()
    path = tmp_path / "kl.json"
    A.save_cache(path)
    listed = [xi for xi, _ in json.loads(path.read_text())["kl"]]
    assert listed == sorted({min(orbit(A, xi)) for xi in range(W.order)})
    del A
    B = HeckeAlgebra(W)
    assert B.load_cache(path) and B.computed_count == 0
    assert kl_digest(B) == (g["entries"], g["sha256"])


def test_cache_that_lists_every_row(tmp_path, system):
    # Each row is listed at its orbit's smallest id and the others are read
    # through G, so a file that lists every row, as caches before schema 3
    # did, is refused: the first row listed at an id that is not its orbit's
    # smallest raises MalformedKL, and nothing is stored.
    for code, first in (("A3", "s3"), ("B3", "s2s1")):
        W = system(code)
        A = HeckeAlgebra(W)
        A.kl_table()
        assert min(xi for xi in range(W.order) if min(orbit(A, xi)) < xi) == W._id(W.parse_element(first))
        path = tmp_path / "kl.json"
        save_every_row(A, path)
        B = HeckeAlgebra(W)
        with pytest.raises(MalformedKL, match=f"uH\\({first}\\) twice or off its orbit's smallest id"):
            B.load_cache(path)
        assert not B._h


@pytest.mark.parametrize("code", ["A4", "B3"])
def test_saved_bytes_do_not_depend_on_the_order_rows_were_computed(tmp_path, system, code):
    # The file numbers its polynomials by first use in the rows it writes, not
    # by pool index, so a table built row by row in a shuffled order, whose
    # pool holds the polynomials in another order, saves the same bytes as
    # one built by kl_table().
    W = system(code)
    ref = HeckeAlgebra(W)
    ref.kl_table()
    ref.save_cache(tmp_path / "ref.json")
    xs = list(W.all_elements())
    random.Random(20261020).shuffle(xs)
    a = HeckeAlgebra(W)
    for x in xs:
        a.kl_element(x)
    order = [a._pool[tuple(map(tuple, pairs))] for pairs in json.loads((tmp_path / "ref.json").read_text())["h"]]
    assert order != sorted(order)  # numbered by pool index, this pool would write another "h"
    a.save_cache(tmp_path / "shuffled.json")
    assert (tmp_path / "shuffled.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("code", ["A3", "B3", "D4"])
def test_cache_save_load_save_is_stable(tmp_path, system, code):
    # Save, load and save again writes the same bytes: for the full table,
    # and for a memo of one row, also where that row is not its orbit's
    # smallest id and the file lists the row read through G instead.
    W = system(code)
    full = HeckeAlgebra(W)
    full.kl_table()
    memos = [(full, sorted({min(orbit(full, xi)) for xi in range(W.order)}))]  # (memo, ids the file lists)
    for xi in (W.order - 1, *(xi for xi in range(W.order) if min(orbit(full, xi)) < xi)):
        a = HeckeAlgebra(W)
        a._h[xi] = {yi: a._intern(full._polys[i]) for yi, i in full._h[xi].items()}
        memos.append((a, [min(orbit(full, xi))]))
    assert len(memos) > 2
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for a, listed in memos:
        a.save_cache(first)
        assert [xi for xi, _ in json.loads(first.read_text())["kl"]] == listed
        b = HeckeAlgebra(W)
        assert b.load_cache(first)
        b.save_cache(second)
        assert second.read_bytes() == first.read_bytes()


def test_load_reads_the_orbit_through_checked_tables(tmp_path, system, monkeypatch):
    # The rows read through G are checked: with a table in G that swaps s1
    # (length 1) and s2s1 (length 2), the row of s1 read through it is no KL
    # row of s2s1, and the load raises before it stores anything.  The file
    # holds the rows of e and s1 alone, so only that check can catch it.
    W = system("A3")
    s1, s2s1 = W._id(W.parse_element("s1")), W._id(W.parse_element("s2s1"))
    A = HeckeAlgebra(W)
    A._kl_raw(s1)
    path = tmp_path / "kl.json"
    A.save_cache(path)
    assert [xi for xi, _ in json.loads(path.read_text())["kl"]] == [0, s1]
    g = list(range(W.order))
    g[s1], g[s2s1] = s2s1, s1
    monkeypatch.setattr("coxkl.hecke._symmetries", lambda W: [(g, g)])
    B = HeckeAlgebra(W)
    with pytest.raises(MalformedKL):
        B.load_cache(path)
    assert not B._h


def test_cache_save_is_atomic(tmp_path, system, monkeypatch):
    # The file is written beside the target and renamed onto it: a failed
    # save leaves the old bytes and no stray temp file.
    W = system("A2")
    a = HeckeAlgebra(W)
    a.kl_element(W.parse_element("s"))
    path = tmp_path / "kl.json"
    a.save_cache(path)
    old = path.read_bytes()

    def fail(src, dst):
        raise OSError("forced")

    a.kl_table()
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="forced"):
        a.save_cache(path)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]
    monkeypatch.undo()
    a.save_cache(path)
    assert path.read_bytes() != old and list(tmp_path.iterdir()) == [path]


def test_cache_mismatch_ignored(tmp_path, system):
    a_b2 = HeckeAlgebra(system("B2"))
    a_b2.kl_table()
    path = tmp_path / "kl.json"
    a_b2.save_cache(path)

    a_a2 = HeckeAlgebra(system("A2"))
    assert not a_a2.load_cache(path)
    assert not a_a2._h

    path.write_text("{not json")
    assert not a_a2.load_cache(path)
    path.write_bytes(b"\xff\xfe{")  # not UTF-8
    assert not a_a2.load_cache(path)
    path.write_text(json.dumps({"schema": 99, "coxeter_hash": "x", "kl": {}}))
    assert not a_a2.load_cache(path)
    assert not a_a2.load_cache(tmp_path / "missing.json")

    # An x must be an int in 0..order-1; a negative one must not wrap around.
    head = {"schema": CACHE_SCHEMA, "coxeter_hash": a_a2.system.fingerprint, "h": [[[0, 1]], [[1, 1]]]}
    path.write_text(json.dumps({**head, "kl": [[0, [0]], [1, [1, 0]]]}))
    assert a_a2.load_cache(path) and sorted(a_a2._h) == [0, 1, 2]
    a_a2 = HeckeAlgebra(system("A2"))
    for kl in (
        [[-5, [1, 0]]],  # -5 would read as s
        [[6, [1, 0]]],
        [["s", [1, 0]]],
        [[1.0, [1, 0]]],
        [[True, [1, 0]]],
    ):
        path.write_text(json.dumps({**head, "kl": kl}))
        assert not a_a2.load_cache(path), kl
    assert not a_a2._h


def test_partial_cache_is_extended(tmp_path, system):
    W = system("B2")
    a1 = HeckeAlgebra(W)
    a1.kl_element(W.parse_element("st"))
    path = tmp_path / "partial.json"
    a1.save_cache(path)

    a2 = HeckeAlgebra(W)
    assert a2.load_cache(path)
    before = a2.computed_count
    a2.kl_table()
    assert a2.computed_count > before
    full = HeckeAlgebra(W)
    full.kl_table()
    for x in W.all_elements():
        assert a2.kl_element(x) == full.kl_element(x)


@pytest.mark.parametrize("code", ["B3", "H3"])
def test_one_row_cache_is_accepted(tmp_path, system, code):
    # With no row of u = sx in the file or the memo, the interval [e, x] that
    # the row of x must cover is derived from the group.  The load holds the
    # whole orbit of x, each row as in the full table.
    W = system(code)
    full = HeckeAlgebra(W)
    full.kl_table()
    path = tmp_path / "one.json"
    for xi, row in full._h.items():
        a = HeckeAlgebra(W)
        a._h[xi] = {yi: a._intern(full._polys[i]) for yi, i in row.items()}
        a.save_cache(path)
        b = HeckeAlgebra(W)
        assert b.load_cache(path) and b.computed_count == 0
        assert set(b._h) == orbit(full, xi)
        for zi, got in b._h.items():
            assert {yi: b._polys[i] for yi, i in got.items()} == {yi: full._polys[i] for yi, i in full._h[zi].items()}


def test_malformed_kl_guard(system):
    W = system("A2")
    a = HeckeAlgebra(W)
    xi = W._id(W.parse_element("st"))
    a._h[xi] = {W._id(W.identity): a._intern({5: 1}), xi: a._intern({0: 1})}  # impossible degree
    with pytest.raises(MalformedKL):
        a.kl_polynomial(W.identity, W.parse_element("st"))
    # A y longer than x is refused even when its exponents would fit l(y) - l(x).
    si = W._id(W.parse_element("s"))
    a._h[si] = {xi: a._intern({1: 1}), si: a._intern({0: 1})}
    with pytest.raises(MalformedKL):
        ih_poincare(a, W.parse_element("s"))


def test_kl_element_and_peel_check_memo_rows(system):
    # kl_element and the peel behind to_kl_basis and bott_samelson read whole
    # memo rows: a tampered h_{s,sts} = v^5 (l(sts) - l(s) = 2) must raise
    # MalformedKL, not show up as (v^5)H[s] or a wrong coefficient at e.
    W = system("A2")
    A = HeckeAlgebra(W)
    A.kl_table()
    sts, s = W.parse_element("sts"), W.parse_element("s")
    A._h[W._id(sts)][W._id(s)] = A._intern({5: 1})
    for read in (
        lambda: A.kl_element(sts),
        lambda: A.to_kl_basis(HeckeElt.standard(W, sts)),
        lambda: A.bott_samelson([0, 1, 0]),
    ):
        with pytest.raises(MalformedKL, match=r"h\(s, sts\)"):
            read()


def test_tampered_memo_raises_malformed_kl(system):
    # h_{e,t} = v^2 has the wrong parity; building uH(st) on top of it must
    # fail loudly, also under python -O.
    W = system("A2")
    a = HeckeAlgebra(W)
    ti = W._id(W.parse_element("t"))
    a._h[ti] = {W._id(W.identity): a._intern({2: 1}), ti: a._intern({0: 1})}
    with pytest.raises(MalformedKL):
        a.kl_element(W.parse_element("st"))
    # h_{e,st} = v^5 has an impossible degree; the audit and IP_x read the
    # memo rows directly, the audit shares verdicts between pairs, and both
    # must still refuse it.
    a = HeckeAlgebra(W)
    sti = W._id(W.parse_element("st"))
    a._h[sti] = {W._id(W.identity): a._intern({5: 1}), sti: a._intern({0: 1})}
    with pytest.raises(MalformedKL):
        lefschetz_audit(a)
    with pytest.raises(MalformedKL):
        ih_poincare(a, W.parse_element("st"))


@pytest.mark.parametrize(
    "x, y, h",
    [
        ("sts", "e", {2: 7}),  # wrong parity for l(x) - l(y) = 3
        ("sts", "e", {5: 1}),  # above l(x) - l(y)
        ("st", "s", {-1: 1}),  # not in v*Z[v]
        ("st", "s", {}),  # a stored entry is never zero
        ("s", "st", {1: 1}),  # y longer than x
        ("sts", "sts", {0: 2}),  # not unitriangular
        ("sts", "e", {1: 1}),  # degree and parity fit, but P_{e,sts}(0) = 0
        ("sts", "e", None),  # a missing entry: the row must cover [e, sts]
    ],
)
def test_load_cache_rejects_malformed_rows(tmp_path, system, x, y, h):
    # Every loaded row gets the degree and parity check of computed ones,
    # P_{y,x}(0) = 1 and covers exactly [e, x]: a bad row raises MalformedKL
    # and nothing is stored.
    W = system("A2")
    a = HeckeAlgebra(W)
    a.kl_table()
    row, yi = a._h[W._id(W.parse_element(x))], W._id(W.parse_element(y))
    if h is None:
        del row[yi]
    else:
        row[yi] = a._intern(h)
    path = tmp_path / "kl.json"
    a.save_cache(path)
    b = HeckeAlgebra(W)
    with pytest.raises(MalformedKL):
        b.load_cache(path)
    assert not b._h


def _edit_sts_row(path, edit):
    # The saved A2 table at path, with edit(data, row) applied, row the positions of the row of
    # sts (id 5), whose first is that of h_{e,sts} = v^3, [[3, 1]], and whose last that of 1.
    data = json.loads(path.read_text())
    (row,) = [ks for xi, ks in data["kl"] if xi == 5]
    assert (data["h"][row[0]], data["h"][row[-1]]) == ([[3, 1]], [[0, 1]])
    edit(data, row)
    path.write_text(json.dumps(data))


def _h_e_sts(pairs):
    # An edit that replaces the saved h_{e,sts} by pairs.
    return lambda data, row: data["h"].__setitem__(row[0], pairs)


CACHE_VARIANTS = {
    # Pairs or positions save_cache never writes: load_cache returns False, as for an x that is not an int.
    "float exponent": (_h_e_sts([[3.0, 1]]), False),
    "float coefficient": (_h_e_sts([[3, 1.0]]), False),
    "strings": (_h_e_sts([["3", "1"]]), False),
    "bool coefficient": (_h_e_sts([[3, True]]), False),
    "h_xx with a bool exponent": (lambda data, row: data["h"].__setitem__(row[-1], [[False, 1]]), False),
    "NaN": (_h_e_sts([[3, float("nan")]]), False),
    "bool position": (lambda data, row: row.__setitem__(0, True), False),
    "float position": (lambda data, row: row.__setitem__(0, 3.0), False),
    "string position": (lambda data, row: row.__setitem__(0, "3"), False),
    "negative position": (lambda data, row: row.__setitem__(0, -1), False),
    "position out of range": (lambda data, row: row.__setitem__(0, len(data["h"])), False),
    # A wrong polynomial or row: MalformedKL.
    "zero coefficient": (_h_e_sts([[1, 0], [3, 1]]), MalformedKL),
    "exponent twice": (_h_e_sts([[3, 1], [3, 1]]), MalformedKL),
    "too many positions": (lambda data, row: row.insert(0, row[0]), MalformedKL),
    "too few positions": (lambda data, row: row.pop(0), MalformedKL),
    "x twice": (lambda data, row: data["kl"].append([5, row]), MalformedKL),
    # t (id 2) shares its orbit with s (id 1), whose row the file lists at 1.
    "x off its orbit's smallest id": (lambda data, row: next(r for r in data["kl"] if r[0] == 1).__setitem__(0, 2), MalformedKL),
}


@pytest.mark.parametrize("variant", CACHE_VARIANTS)
def test_load_cache_takes_only_pairs_save_cache_writes(tmp_path, system, variant):
    # int() turns strings into ints and True is 1, so types are checked; a
    # zero coefficient, a row of the wrong length or a second row for one x
    # must not be dropped or win silently.
    edit, outcome = CACHE_VARIANTS[variant]
    a = HeckeAlgebra(system("A2"))
    a.kl_table()
    path = tmp_path / "kl.json"
    a.save_cache(path)
    b = HeckeAlgebra(a.system)
    assert b.load_cache(path)
    _edit_sts_row(path, edit)
    b = HeckeAlgebra(a.system)
    if outcome is False:
        assert b.load_cache(path) is False
    else:
        with pytest.raises(outcome):
            b.load_cache(path)
    assert not b._h
    assert (b._polys, b._deg, b._pool) == ([{0: 1}], [None], {((0, 1),): 0})


def test_a_refused_load_leaves_the_pool_as_it_found_it(tmp_path, system):
    # load_cache pools the file's polynomials before it checks the rows.  A refused
    # file takes them out again, whether the load returns False or raises
    # MalformedKL, into a fresh algebra or one that holds part of its table.
    W = system("A4")
    full = HeckeAlgebra(W)
    full.kl_table()
    path = tmp_path / "kl.json"
    full.save_cache(path)
    text = path.read_text()
    edits = {
        False: lambda row: row.__setitem__(0, -1),  # a position that names no polynomial
        MalformedKL: lambda row: row.pop(),  # a row one entry short of [e, x]
    }
    for outcome, edit in edits.items():
        saved = json.loads(text)
        edit(saved["kl"][-1][1])
        path.write_text(json.dumps(saved))
        for computed in ((), ("s1s2s3", "s4s3")):
            b = HeckeAlgebra(W)
            for x in computed:
                b.kl_element(W.parse_element(x))
            before = (list(b._polys), list(b._deg), dict(b._pool), dict(b._h))
            if outcome is False:
                assert b.load_cache(path) is False
            else:
                with pytest.raises(MalformedKL):
                    b.load_cache(path)
            assert (b._polys, b._deg, b._pool, b._h) == before, (outcome, computed)
            b.kl_table()
            assert kl_digest(b) == kl_digest(full)


@pytest.mark.parametrize("code", ["A3", "B2"])
def test_kl_inversion_formula(code, system, algebra):
    # The KL matrix inverts against its w0-translate:
    # sum over y <= z <= x of (-1)^(l(z)-l(y)) P_{y,z} P_{w0 x, w0 z} = delta_{y,x}.
    W, A = system(code), algebra(code)
    w0 = W.longest_element()
    zero = LaurentPoly.zero()
    for y in W.all_elements():
        for x in W.all_elements():
            if not W.bruhat_leq(y, x):
                continue
            total = zero
            for z in W.all_elements():
                if W.bruhat_leq(y, z) and W.bruhat_leq(z, x):
                    sgn = -1 if (z.length - y.length) % 2 else 1
                    total = total + sgn * (
                        A.kl_polynomial(y, z)
                        * A.kl_polynomial(W.multiply(w0, x), W.multiply(w0, z))
                    )
            assert total == (one if y == x else zero), (y, x)


@pytest.mark.parametrize(
    "big,small,embed",
    [("A3", "A2", {0: 0, 1: 1}), ("B3", "B2", {0: 1, 1: 2}), ("A4", "A3", {0: 1, 1: 2, 2: 3})],
)
def test_parabolic_restriction_invariance(big, small, embed, system, algebra):
    # KL polynomials of a standard parabolic subgroup agree with those of the
    # ambient group on the embedded elements.
    WB, AB = system(big), algebra(big)
    WS, AS = system(small), algebra(small)

    def lift(el):
        return WB.element(tuple(embed[s] for s in el.word))

    for y in WS.all_elements():
        for x in WS.all_elements():
            assert AS.kl_polynomial(y, x) == AB.kl_polynomial(lift(y), lift(x))


def test_h3_longest_element_and_a_nontrivial_poly(system):
    # Noncrystallographic sanity: the top element still has all P = 1, and
    # genuinely nontrivial polynomials occur lower down.
    W = system("H3")
    A = HeckeAlgebra(W)
    w0 = W.longest_element()
    assert w0.length == 15
    for y in W.all_elements():
        assert A.kl_polynomial(y, w0) == one
    degrees = {
        A.kl_polynomial(y, x).max_exp
        for x in W.all_elements()
        for y in W.all_elements()
        if W.bruhat_leq(y, x)
    }
    assert max(degrees) == 4


def test_concurrent_memoization(system):
    # Concurrent callers may duplicate work but the final table must agree
    # with a single-threaded run and only ever expose finished entries.
    import threading

    W = system("B3")
    shared = HeckeAlgebra(W)
    els = list(W.all_elements())

    def worker(offset):
        rng = random.Random(offset)
        for _ in range(40):
            x = rng.choice(els)
            u = shared.kl_element(x)
            assert u.coeff(x) == one

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    shared.kl_table()
    reference = HeckeAlgebra(W)
    reference.kl_table()
    # Indices belong to one algebra: compare rows through each one's pool.
    for xi, row in reference._h.items():
        assert {yi: shared._polys[i] for yi, i in shared._h[xi].items()} == {
            yi: reference._polys[i] for yi, i in row.items()
        }
    # No two threads took one index, and each index maps back to its content.
    assert len(shared._polys) == len(shared._pool) == len(shared._deg)
    assert all(shared._polys[i] == dict(key) for key, i in shared._pool.items())

    # Threads that intern the same new polynomials at once, switching nearly
    # every bytecode, get one index per polynomial; h = v + b v^3 has the
    # class d = 3 when b = 1 and none otherwise.
    polys = [{1: a, 3: b} for a in range(1, 30) for b in range(1, 30)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            fresh, got = HeckeAlgebra(W), []

            def intern_all(seed):
                order = random.Random(seed).sample(polys, len(polys))
                got.append({tuple(sorted(h.items())): fresh._intern(dict(h)) for h in order})

            threads = [threading.Thread(target=intern_all, args=(i,)) for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert len(got) == 8 and all(g == got[0] for g in got)
            assert len(fresh._polys) == len(fresh._pool) == len(fresh._deg) == len(polys) + 1
            for key, i in fresh._pool.items():
                assert fresh._polys[i] == dict(key) and fresh._deg[i] == (3 if key[-1] == (3, 1) else None)
    finally:
        sys.setswitchinterval(interval)


def test_refused_loads_race_with_the_recursion(tmp_path, system):
    # A refused cache load drops the polynomials it pooled.  Threads that compute
    # rows meanwhile, switching nearly every bytecode, must never be handed one of
    # those indices: the table agrees with a single-threaded run and every pool
    # index maps back to its content.
    import threading

    W = system("B3")
    reference = HeckeAlgebra(W)
    reference.kl_table()
    path = tmp_path / "kl.json"
    reference.save_cache(path)
    saved = json.loads(path.read_text())
    saved["kl"][-1][1].pop()  # a row one entry short of [e, x]: MalformedKL
    path.write_text(json.dumps(saved))
    els = list(W.all_elements())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            shared, stop, refused = HeckeAlgebra(W), threading.Event(), []

            def load():
                while not stop.is_set():
                    with pytest.raises(MalformedKL):
                        shared.load_cache(path)
                    refused.append(1)

            def compute(seed):
                for x in random.Random(seed).sample(els, len(els)):
                    shared.kl_element(x)

            loaders = [threading.Thread(target=load) for _ in range(2)]
            workers = [threading.Thread(target=compute, args=(round_ * 8 + i,)) for i in range(6)]
            for th in loaders + workers:
                th.start()
            for th in workers:
                th.join(timeout=120)
            stop.set()
            for th in loaders:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in loaders + workers)
            assert refused and len(shared._h) == W.order
            for xi, row in reference._h.items():
                assert {yi: shared._polys[i] for yi, i in shared._h[xi].items()} == {
                    yi: reference._polys[i] for yi, i in row.items()
                }
            assert len(shared._polys) == len(shared._pool) == len(shared._deg)
            assert all(shared._polys[i] == dict(key) for key, i in shared._pool.items())
    finally:
        sys.setswitchinterval(interval)
