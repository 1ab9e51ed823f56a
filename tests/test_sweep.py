"""A seeded sweep over the small finite Coxeter matrices, refereed by the oracles.

Each group is built from a random order of its generators under random names
that ``CoxeterSystem`` accepts, so no code path can lean on the built-in
numbering or on the default names.  Each check compares against a brute
force that shares no logic with the path it referees; all of them trust the
Cayley tables, which test_coxeter.py checks against reflection matrices and
group_golden.json.
"""
from __future__ import annotations

import itertools
import random

import pytest

from coxkl import CoxeterSystem, HeckeAlgebra, andersen_table, make_block
from coxkl.coxeter import CoxeterError, _builtin_matrix
from coxkl.laurent import LaurentPoly

from oracles import bar_matrix, kl_basis_bruteforce, parabolic_kl_bruteforce, subword_elements

# Each group is a direct sum of these irreducible parts.
SWEEP = [
    "A1xA1xA1", "A1xA2", "A1xB2", "A1xG2", "A1xI2(5)", "A2xA2", "B2xB2", "G2xA2",
    "A1xA3", "A1xB3", "A3", "B3", "H3", "A4", "D4",
]
NAME_LETTERS = "abcst12"
# test_blocks.py referees H3, A4 and D4 in the built-in order; the rest have order at most 96.
BLOCK_SWEEP = [group for group in SWEEP if group not in ("H3", "A4", "D4")]


def _part(code: str) -> list[list[int]]:
    return [[1, 5], [5, 1]] if code == "I2(5)" else _builtin_matrix(code)


def _direct_sum(codes: list[str]) -> list[list[int]]:
    parts = [_part(code) for code in codes]
    n = sum(len(p) for p in parts)
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    base = 0
    for p in parts:
        for i, row in enumerate(p):
            m[base + i][base : base + len(p)] = row
        base += len(p)
    return m


def _random_system(group: str, rng: random.Random) -> CoxeterSystem:
    """group's matrix in a random generator order, under random accepted names."""
    m = _direct_sum(group.split("x"))
    n = len(m)
    order = rng.sample(range(n), n)
    matrix = [[m[order[i]][order[j]] for j in range(n)] for i in range(n)]
    for _ in range(200):
        names = ["".join(rng.choices(NAME_LETTERS, k=rng.randint(1, 3))) for _ in range(n)]
        try:
            CoxeterSystem._validate_names(names, n)
        except CoxeterError:
            continue  # repeated or ambiguous names
        return CoxeterSystem(matrix, names)
    raise AssertionError(f"no accepted names drawn for {group}")


def _brute_automorphisms(matrix) -> set[tuple[int, ...]]:
    # The permutations of the generators that keep every m(s, t) and map each
    # connected component of the Coxeter graph (by a search) onto itself.
    n = len(matrix)
    components = []
    for s in range(n):
        if not any(s in c for c in components):
            comp, todo = {s}, [s]
            while todo:
                u = todo.pop()
                new = {t for t in range(n) if matrix[u][t] >= 3} - comp
                comp |= new
                todo.extend(new)
            components.append(comp)
    return {
        p
        for p in itertools.permutations(range(n))
        if all(matrix[p[s]][p[t]] == matrix[s][t] for s in range(n) for t in range(n))
        and all({p[s] for s in c} == c for c in components)
    }


@pytest.mark.parametrize("group", SWEEP)
def test_sweep_against_brute_force(group):
    rng = random.Random(f"sweep {group}")
    W = _random_system(group, rng)
    els = W.all_elements()
    ids = {x: i for i, x in enumerate(els)}

    # Every KL entry against the bar-matrix solve.
    A, solved = HeckeAlgebra(W), kl_basis_bruteforce(W)
    for x in els:
        assert dict(A.kl_element(x).terms) == {y: LaurentPoly(p) for y, p in solved[x].items()}, x

    # Again from a fresh algebra, x by x in a seeded random order: a row pivots
    # on the left descent s whose sx has the smallest held row, and on the first
    # letter of x's word when none is held, as for the first x of positive length.
    B = HeckeAlgebra(W)
    for x in random.Random(f"row order {group}").sample(els, len(els)):
        assert dict(B.kl_element(x).terms) == {y: LaurentPoly(p) for y, p in solved[x].items()}, x

    # Aut0: the identity first, then each permutation once, acting on words.
    gens = [ids[g] for g in W.generators]
    tables = W._graph_automorphisms()
    sigmas = [tuple(gens.index(g[t]) for t in gens) for g in tables]
    assert sigmas[0] == tuple(range(W.rank))
    assert len(set(sigmas)) == len(sigmas)
    assert set(sigmas) == _brute_automorphisms(W.coxeter_matrix)
    for g, sigma in zip(tables, sigmas):
        assert all(g[ids[x]] == ids[W.element(sigma[s] for s in x.word)] for x in els)

    # [e, x] against the subword property.
    for x in els:
        assert W._interval(ids[x]) == {ids[y] for y in subword_elements(W, x)}, x

    # Words: every canonical form, and random unreduced words.
    assert all(W.parse_element(W.format_element(x)) == x for x in els)
    for _ in range(200):
        word = tuple(rng.choices(range(W.rank), k=rng.randint(1, 12)))
        text = "".join(W.generator_names[s] for s in word)
        assert W.parse_word(text) == word, (W.generator_names, text)
        assert W.parse_element(text) == W.element(word)


@pytest.mark.parametrize("group", BLOCK_SWEEP)
def test_sweep_blocks_against_the_parabolic_referee(group):
    # Every singular block of the shuffled, renamed system against the
    # parabolic module's own bar-invariance solve, as test_blocks.py does in
    # the built-in generator order.
    W = _random_system(group, random.Random(f"sweep {group}"))
    A, cols = HeckeAlgebra(W), bar_matrix(W)
    for r in range(W.rank + 1):
        for I in itertools.combinations(range(W.rank), r):
            ref = parabolic_kl_bruteforce(W, I, cols)
            table = andersen_table(make_block(W, I), A)
            assert table.row_labels == tuple(W.format_element(x) for x in sorted(ref, key=lambda x: x.sort_key)), I
            expected = {(W.format_element(y), W.format_element(x)): n for x, col in ref.items() for y, n in col.items()}
            assert table.cells == expected, I
