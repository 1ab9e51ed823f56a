import gc
import hashlib
import itertools
import json
import os
import random
from pathlib import Path

import pytest

from coxkl.blocks import andersen_table, make_block
from coxkl.coxeter import CoxeterError, CoxeterSystem
from coxkl.hecke import CACHE_SCHEMA, HeckeAlgebra, HeckeElt, MalformedKL, _symmetries
from coxkl.laurent import LaurentPoly
from coxkl.lefschetz import ih_poincare, lefschetz_audit

from oracles import kl_basis_bruteforce

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
    digest, count = hashlib.sha256(), 0
    for xi, row in sorted(A._h.items()):
        count += len(row)
        line = [xi, [[yi, sorted(h.items())] for yi, h in sorted(row.items())]]
        digest.update(json.dumps(line).encode() + b"\n")
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
    A._h[st][0] = {5: 1}
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
    A._h[st][0] = {2: 5}
    with pytest.raises(MalformedKL):
        A._kl_raw(ts)
    assert ts not in A._h


def test_derived_rows_share_the_pool(system):
    # Rows read through a symmetry count as computed and reuse the pooled
    # dicts of the row they are read from.
    W = system("D4")
    A = HeckeAlgebra(W)
    A.kl_table()
    assert A.computed_count == W.order
    for g, _ in A._sym:
        for xi, row in A._h.items():
            other = A._h[g[xi]]
            assert all(other[g[yi]] is h for yi, h in row.items())


def test_equal_entries_are_one_pooled_dict(system):
    # A5 has 121 distinct h_{y,x} among its 98,407 memo entries.
    A = HeckeAlgebra(system("A5"))
    A.kl_table()
    entries = [h for row in A._h.values() for h in row.values()]
    assert len(entries) == 98407
    assert len({id(h) for h in entries}) == len({tuple(sorted(h.items())) for h in entries}) == 121


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
    for cell in table.cells.values():
        cell[99] = 1
    assert kl_digest(A) == before
    assert A.h_poly(W.identity, x) == v**2 + v**4
    assert andersen_table(block, A).cells == cells


def test_fresh_memo_dicts_never_meet_stale_ops(system):
    # Pool arithmetic is memoized on operand ids.  Build the table in eight
    # rounds; after each, rebuild every memo row as fresh, equal, unpooled
    # dicts, in reverse order, once the old ones and the pool are dropped, so
    # that freed addresses come back holding other polynomials.  The table
    # must still be right.
    W = system("B3")
    A = HeckeAlgebra(W)
    for stop in range(W.order // 8, W.order + 1, W.order // 8):
        for xi in range(stop):
            A._kl_raw(xi)
        saved = [(xi, [(yi, sorted(h.items())) for yi, h in row.items()]) for xi, row in A._h.items()]
        A._h.clear()
        A._pool.clear()
        gc.collect()
        for xi, row in reversed(saved):
            A._h[xi] = {yi: dict(items) for yi, items in reversed(row)}
    solved = kl_basis_bruteforce(W)
    for x in W.all_elements():
        assert dict(A.kl_element(x).terms) == {y: LaurentPoly(p) for y, p in solved[x].items()}
    # Each memo value holds the operands its key names, so none was freed.
    assert all(key[:2] == (id(val[0]), id(val[1])) for key, val in A._ops.items())


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


@pytest.mark.parametrize("code", ["A3", "B2"])
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
    # Loaded entries go through the pool: equal entries are one dict.
    entries = [h for row in a2._h.values() for h in row.values()]
    assert len({id(h) for h in entries}) == len({tuple(sorted(h.items())) for h in entries}) == 10
    for x in W.all_elements():
        for y in W.all_elements():
            assert a2.h_poly(y, x) == a1.h_poly(y, x)
    assert a2.computed_count == 0
    # Nothing was computed, so the symmetry tables were never built.
    assert a2._sym is None
    a2.save_cache(tmp_path / "kl2.json")
    assert (tmp_path / "kl2.json").read_bytes() == path.read_bytes()
    # Ids are positions in all_elements(): a change of that order or of the
    # file format without a schema bump must fail here first.
    raw = path.read_bytes()
    assert (len(raw), hashlib.sha256(raw).hexdigest()) == (
        2915, "fb8d7a65e6956cd6a6f84e34cd1a7e12c11ce7f784f9229919df3a4a5ced02b1"
    )


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
    path.write_text(json.dumps({"schema": 99, "coxeter_hash": "x", "kl": {}}))
    assert not a_a2.load_cache(path)
    assert not a_a2.load_cache(tmp_path / "missing.json")

    # Ids must be ints in 0..order-1; a negative one must not wrap around.
    head = {"schema": CACHE_SCHEMA, "coxeter_hash": a_a2.system.fingerprint}
    for kl in (
        [[-1, [[0, [[3, 1]]], [-1, [[0, 1]]]]]],  # -1 would read as sts
        [[5, [[-6, [[3, 1]]], [5, [[0, 1]]]]]],  # -6 would read as e
        [[6, [[0, [[3, 1]]], [6, [[0, 1]]]]]],
        [["s", [[0, [[1, 1]]], ["s", [[0, 1]]]]]],
        [[1.0, [[0, [[1, 1]]], [1.0, [[0, 1]]]]]],
        [[True, [[0, [[1, 1]]], [True, [[0, 1]]]]]],
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
    # the row of x must cover is derived from the group.
    W = system(code)
    full = HeckeAlgebra(W)
    full.kl_table()
    path = tmp_path / "one.json"
    for xi, row in full._h.items():
        a = HeckeAlgebra(W)
        a._h[xi] = row
        a.save_cache(path)
        b = HeckeAlgebra(W)
        assert b.load_cache(path) and b._h == {xi: row}


def test_malformed_kl_guard(system):
    W = system("A2")
    a = HeckeAlgebra(W)
    xi = W._id(W.parse_element("st"))
    a._h[xi] = {W._id(W.identity): {5: 1}, xi: {0: 1}}  # impossible degree
    with pytest.raises(MalformedKL):
        a.kl_polynomial(W.identity, W.parse_element("st"))
    # A y longer than x is refused even when its exponents would fit l(y) - l(x).
    si = W._id(W.parse_element("s"))
    a._h[si] = {xi: {1: 1}, si: {0: 1}}
    with pytest.raises(MalformedKL):
        ih_poincare(a, W.parse_element("s"))


def test_tampered_memo_raises_malformed_kl(system):
    # h_{e,t} = v^2 has the wrong parity; building uH(st) on top of it must
    # fail loudly, also under python -O.
    W = system("A2")
    a = HeckeAlgebra(W)
    ti = W._id(W.parse_element("t"))
    a._h[ti] = {W._id(W.identity): {2: 1}, ti: {0: 1}}
    with pytest.raises(MalformedKL):
        a.kl_element(W.parse_element("st"))
    # h_{e,st} = v^5 has an impossible degree; the audit and IP_x read the
    # memo rows directly, the audit shares verdicts between pairs, and both
    # must still refuse it.
    a = HeckeAlgebra(W)
    sti = W._id(W.parse_element("st"))
    a._h[sti] = {W._id(W.identity): {5: 1}, sti: {0: 1}}
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
        row[yi] = h
    path = tmp_path / "kl.json"
    a.save_cache(path)
    b = HeckeAlgebra(W)
    with pytest.raises(MalformedKL):
        b.load_cache(path)
    assert not b._h


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
    assert shared._h == reference._h
