import hashlib
import itertools
import json
from pathlib import Path

import pytest

from coxkl import coxeter
from coxkl.blocks import make_block
from coxkl.coxeter import CoxeterError, CoxeterSystem, Element, InfiniteGroupError
from coxkl.laurent import LaurentPoly

from oracles import model_length, model_matrix, reflection_model, subword_leq


DATA = Path(__file__).parent / "data"


def all_subsets(rank):
    out = []
    for r in range(rank + 1):
        out.extend(itertools.combinations(range(rank), r))
    return out


# -- construction ----------------------------------------------------------


@pytest.mark.parametrize(
    "code,order,label",
    [
        ("A1", 2, "A1"),
        ("A2", 6, "A2"),
        ("A3", 24, "A3"),
        ("A4", 120, "A4"),
        ("B2", 8, "B2"),
        ("B3", 48, "B3"),
        ("D2", 4, "A1xA1"),
        ("D4", 192, "D4"),
        ("G2", 12, "G2"),
        ("F4", 1152, "F4"),
        ("H3", 120, "H3"),
    ],
)
def test_builtin_orders(code, order, label):
    W = CoxeterSystem.from_type(code)
    assert W.order == order
    assert W.type_label == label
    els = W.all_elements()
    assert len(set(els)) == order
    assert els[0] == W.identity
    keys = [el.sort_key for el in els]
    assert keys == sorted(keys)


def test_default_names(system):
    assert system("A1").generator_names == ("s",)
    assert system("A2").generator_names == ("s", "t")
    assert system("B2").generator_names == ("s", "t")
    assert system("A3").generator_names == ("s1", "s2", "s3")


def test_bad_matrices():
    with pytest.raises(CoxeterError):
        CoxeterSystem([])
    with pytest.raises(CoxeterError):
        CoxeterSystem([[1, 3], [3, 1], [2, 2]])
    with pytest.raises(CoxeterError):
        CoxeterSystem([[2, 3], [3, 1]])
    with pytest.raises(CoxeterError):
        CoxeterSystem([[1, 3], [4, 1]])
    with pytest.raises(CoxeterError):
        CoxeterSystem([[1, 7], [7, 1]])
    with pytest.raises(CoxeterError):
        CoxeterSystem([[1, 0], [0, 1]])
    for matrix in ([[1, 2.0], [2.0, 1]], [[1, True], [True, 1]]):
        with pytest.raises(CoxeterError, match="matrix entries must be ints"):
            CoxeterSystem(matrix)
    with pytest.raises(CoxeterError, match="expected 2 generator names, got 1"):
        CoxeterSystem([[1, 3], [3, 1]], ["a"])
    with pytest.raises(CoxeterError):
        CoxeterSystem.from_type("Z9")
    with pytest.raises(CoxeterError):
        CoxeterSystem.from_type("G3")
    for matrix in (5, [5, 6], [[1, "x"], 3]):
        with pytest.raises(CoxeterError):
            CoxeterSystem.from_json({"rank": 2, "matrix": matrix})
    # A string, a dict (its keys) and a set (in hash-seed order) are not lists of names.
    for names in (5, "ab", {"a": 0, "b": 1}):
        with pytest.raises(CoxeterError, match="generator names must be a list"):
            CoxeterSystem.from_json({"rank": 2, "matrix": [[1, 3], [3, 1]], "names": names})
    for names in ({"a", "b"}, frozenset("ab"), {"a": 0, "b": 1}):
        with pytest.raises(CoxeterError, match="generator names must be a list"):
            CoxeterSystem([[1, 3], [3, 1]], names)
    assert CoxeterSystem([[1, 3], [3, 1]], ("b", "a")).generator_names == ("b", "a")
    for rank, matrix in (("2", [[1, 3], [3, 1]]), (2.0, [[1, 3], [3, 1]]), (True, [[1]])):
        with pytest.raises(CoxeterError, match="rank must be an int"):
            CoxeterSystem.from_json({"rank": rank, "matrix": matrix})


def _edge_matrix(n, bonds):
    # The Coxeter matrix of rank n with the given {(i, j): m} bonds; all other pairs commute.
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for (i, j), label in bonds.items():
        m[i][j] = m[j][i] = label
    return m


def test_infinite_matrices_rejected():
    # affine A2~: a 3-cycle of 3-bonds
    with pytest.raises(InfiniteGroupError):
        CoxeterSystem([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    # affine C2~: path with two 4-bonds
    with pytest.raises(InfiniteGroupError):
        CoxeterSystem([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
    # affine G2~: path 6-3
    with pytest.raises(InfiniteGroupError):
        CoxeterSystem([[1, 6, 2], [6, 1, 3], [2, 3, 1]])
    for n, bonds in (
        (5, {(0, 1): 3, (0, 2): 3, (0, 3): 3, (0, 4): 3}),  # affine D4~: a vertex with four leaves
        (6, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (3, 5): 3}),  # affine D5~: two branch vertices
        (4, {(0, 1): 3, (1, 2): 3, (1, 3): 4}),  # affine B3~: a branch vertex next to a 4-bond
    ):
        with pytest.raises(InfiniteGroupError):
            CoxeterSystem(_edge_matrix(n, bonds))


def test_enumeration_checked_against_the_catalog(monkeypatch):
    # Behind the catalog, construction still checks the enumeration itself.
    monkeypatch.setattr(coxeter, "_classify_matrix", lambda m: ("A3", 23))
    with pytest.raises(CoxeterError, match="enumeration disagrees with the catalog order"):
        CoxeterSystem.from_type("A3")
    monkeypatch.setattr(coxeter, "_classify_matrix", lambda m: ("A3", 10))
    monkeypatch.setattr(coxeter, "DEFAULT_MAX_ELEMENTS", 10)
    with pytest.raises(InfiniteGroupError, match="enumeration exceeded the element bound 10"):
        CoxeterSystem.from_type("A3")


def test_element_bound_enforced(monkeypatch):
    monkeypatch.setattr(coxeter, "DEFAULT_MAX_ELEMENTS", 10)
    with pytest.raises(InfiniteGroupError):
        CoxeterSystem.from_type("A3")


def test_element_bound_checked_before_enumerating(monkeypatch):
    def enumerate_(self):
        pytest.fail("enumerated a group whose catalog order is above the bound")

    monkeypatch.setattr(CoxeterSystem, "_enumerate", enumerate_)
    monkeypatch.setattr(coxeter, "DEFAULT_MAX_ELEMENTS", 1000)
    with pytest.raises(InfiniteGroupError):
        CoxeterSystem.from_type("F4")


def test_json_input(tmp_path):
    data = {"rank": 2, "matrix": [[1, 4], [4, 1]], "names": ["a", "b"]}
    W = CoxeterSystem.from_json(data)
    assert W.order == 8
    assert W.generator_names == ("a", "b")
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(data))
    W2 = CoxeterSystem.from_json_file(path)
    assert W2.coxeter_matrix == W.coxeter_matrix
    assert W2.fingerprint == W.fingerprint
    with pytest.raises(CoxeterError):
        CoxeterSystem.from_json({"matrix": [[1]]})
    with pytest.raises(CoxeterError):
        CoxeterSystem.from_json({"rank": 2, "matrix": [[1]]})
    with pytest.raises(CoxeterError):
        CoxeterSystem.from_json({"rank": 1, "matrix": [[1]], "names": ["e"]})
    with pytest.raises(CoxeterError):
        CoxeterSystem.from_json({"rank": 2, "matrix": [[1, 3], [3, 1]], "names": ["a", "a"]})


def test_fingerprint_distinguishes():
    a = CoxeterSystem.from_type("B2")
    b = CoxeterSystem.from_json({"rank": 2, "matrix": [[1, 4], [4, 1]], "names": ["x", "y"]})
    assert a.fingerprint != b.fingerprint
    assert a.fingerprint == CoxeterSystem.from_type("B2").fingerprint


# -- multiplication against the reflection-matrix oracle --------------------


@pytest.mark.parametrize("code", ["A2", "A3", "B2"])
def test_multiplication_oracle(code, system):
    W = system(code)
    mats, roots = reflection_model(code)
    mat_of = {el: model_matrix(mats, el.word) for el in W.all_elements()}
    assert len(set(mat_of.values())) == W.order  # model is faithful
    for el, m in mat_of.items():
        assert model_length(m, roots) == el.length
    for a in W.all_elements():
        for b in W.all_elements():
            prod = W.multiply(a, b)
            assert mat_of[prod] == model_matrix(mats, a.word + b.word)


def test_multiply_examples(system):
    W = system("A2")
    s, t = W.generators
    assert W.multiply(s, s) == W.identity
    st = W.multiply(s, t)
    assert st.length == 2 and st.word == (0, 1)
    sts = W.multiply(st, s)
    assert sts.length == 3
    assert sts.word == (0, 1, 0)  # ShortLex-least of {sts, tst}
    assert W.element((1, 0, 1)) == sts


@pytest.mark.parametrize("code", ["A3", "B2"])
def test_associativity_and_inverse(code, system):
    W = system(code)
    els = W.all_elements()
    for a in els:
        inv = W.inverse(a)
        assert inv.length == a.length
        assert W.multiply(a, inv) == W.identity
    for a, b, c in itertools.product(els, els, els):
        assert W.multiply(W.multiply(a, b), c) == W.multiply(a, W.multiply(b, c))


# -- descents ----------------------------------------------------------------


def test_descent_examples(system):
    W = system("A2")
    assert W.descents(W.identity) == frozenset()
    assert W.descents(W.identity, "left") == frozenset()
    sts = W.parse_element("sts")
    assert W.descents(sts, "right") == frozenset({0, 1})
    assert W.descents(sts, "left") == frozenset({0, 1})
    st = W.parse_element("st")
    assert W.descents(st, "right") == frozenset({1})
    assert W.descents(st, "left") == frozenset({0})
    with pytest.raises(ValueError):
        W.descents(st, "up")


@pytest.mark.parametrize("code", ["A3", "B2"])
def test_descents_match_length_drops(code, system):
    W = system(code)
    for a in W.all_elements():
        right = {s for s in range(W.rank) if W.apply_gen(a, s, "right").length < a.length}
        left = {s for s in range(W.rank) if W.apply_gen(a, s, "left").length < a.length}
        assert W.descents(a, "right") == frozenset(right)
        assert W.descents(a, "left") == frozenset(left)
    with pytest.raises(ValueError):
        W.apply_gen(W.longest_element(), 0, "rigth")


# -- enumeration golden -------------------------------------------------------


def group_digest(W):
    # SHA-256 over, per element in all_elements() order: its word, its right
    # and left generator products and its inverse (as positions), and its
    # right and left descents; public API only.
    els = W.all_elements()
    pos = {el: i for i, el in enumerate(els)}
    digest = hashlib.sha256()
    for el in els:
        row = [list(el.word)]
        row += [[pos[W.apply_gen(el, s, side)] for s in range(W.rank)] for side in ("right", "left")]
        row.append(pos[W.inverse(el)])
        row += [sorted(W.descents(el, side)) for side in ("right", "left")]
        digest.update(json.dumps(row).encode() + b"\n")
    return digest.hexdigest()


def golden_groups():
    # (entry, system) for each group of group_golden.json.
    golden = json.loads((DATA / "group_golden.json").read_text())
    for g in golden:
        yield g, CoxeterSystem(g["matrix"]) if "matrix" in g else CoxeterSystem.from_type(g["group"])


def test_group_golden():
    # Order and group_digest of every listed group, recorded from the
    # enumeration that carried each element as its reflection matrix.
    groups = list(golden_groups())
    assert [g["group"] for g, _ in groups] == [
        "A1", "A2", "B2", "G2", "A3", "B3", "H3", "A4", "B4", "D4", "F4", "A5", "D5",
        "I2(5)", "A1xB2", "H4",
    ]
    for g, W in groups:
        assert (W.order, group_digest(W)) == (g["order"], g["sha256"]), g["group"]


def test_format_element_joins_the_word():
    # The labels come from the search, one parent label plus one name each;
    # the referee joins the names of the canonical word.  The matrix file
    # has the multi-letter name "bb".
    systems = [W for _, W in golden_groups()]
    systems.append(CoxeterSystem.from_json_file(DATA / "matrix_a_bb_c.json"))
    for W in systems:
        assert W.format_element(W.identity) == "e"
        for x in W.all_elements():
            assert W.format_element(x) == ("".join(W.generator_names[s] for s in x.word) or "e"), x


# -- Bruhat order -------------------------------------------------------------


def test_bruhat_examples(system):
    W = system("A2")
    for x in W.all_elements():
        assert W.bruhat_leq(W.identity, x)
    assert W.bruhat_leq(W.parse_element("s"), W.parse_element("ts"))
    assert not W.bruhat_leq(W.parse_element("st"), W.parse_element("ts"))


@pytest.mark.parametrize("code", ["A3", "B2", "G2"])
def test_bruhat_matches_subword_property(code, system):
    W = system(code)
    els = W.all_elements()
    for xi, x in enumerate(els):
        below = {yi for yi, y in enumerate(els) if subword_leq(W, y, x)}
        assert {yi for yi, y in enumerate(els) if W.bruhat_leq(y, x)} == below
        assert W._interval(xi) == below


@pytest.mark.parametrize("code", ["A4", "B3", "H3", "D4"])
def test_interval_matches_kl_rows(code, system, algebra):
    # By KL positivity h_{y,x} != 0 exactly on [e, x]: the KL recursion is a
    # derivation of the interval independent of the subword fold.
    W, A = system(code), algebra(code)
    for xi in range(W.order):
        assert W._interval(xi) == A._kl_raw(xi).keys()


# -- parabolic machinery -------------------------------------------------------


def test_longest_element_examples(system):
    assert system("A2").longest_element([]) == system("A2").identity
    assert system("A2").longest_element().length == 3
    assert system("B2").longest_element().length == 4
    assert system("A3").longest_element().length == 6
    assert system("A2").longest_element([1]).word == (1,)


def test_coset_max_rep_examples(system):
    W = system("A2")
    a = W.parse_element("ts")
    assert W.coset_max_rep([], a) == a
    assert W.coset_max_rep([1], W.identity) == W.parse_element("t")
    assert W.coset_max_rep([1], a) == W.parse_element("sts")


def test_cosets_examples(system):
    W = system("A2")
    singletons = W.cosets([])
    assert len(singletons) == 6
    assert [c.max_rep for c in singletons] == list(W.all_elements())
    assert all(c.min_rep == c.max_rep for c in singletons)
    cs = W.cosets([1])
    assert [W.format_element(c.max_rep) for c in cs] == ["t", "st", "sts"]
    assert len(system("A3").cosets([1])) == 12


@pytest.mark.parametrize("code", ["A3", "B2", "G2", "B3", "H3", "A4", "D4"])
def test_coset_partition_properties(code, system):
    # The referee is coset_max_rep, which walks each element up to its max
    # rep through ascents in I, independently of the one-step partition.
    W = system(code)
    pos = {el: i for i, el in enumerate(W.all_elements())}
    for I in all_subsets(W.rank):
        sub = W.parabolic_elements(I)
        cs = W.cosets(I)
        assert len(cs) * len(sub) == W.order
        mins = [pos[c.min_rep] for c in cs]
        assert mins == sorted(mins), I
        tops = sorted({pos[W.coset_max_rep(I, el)] for el in W.all_elements()})
        block = make_block(W, I)
        assert [pos[c.max_rep] for c in block.cosets] == tops, I
        assert set(block.cosets) == set(cs)
        seen = set()
        for c in cs:
            # The coset's elements, min_rep * W_I, from the parabolic referee.
            elements = {W.multiply(c.min_rep, z) for z in sub}
            assert len(elements) == len(sub)
            assert c.min_rep == min(elements, key=pos.__getitem__)
            assert c.max_rep == max(elements, key=pos.__getitem__)
            assert c.max_rep.length == c.min_rep.length + sub[-1].length
            assert set(I) <= W.descents(c.max_rep, "right")
            assert not (set(I) & W.descents(c.min_rep, "right"))
            for el in elements:
                assert W.bruhat_leq(el, c.max_rep)
                assert W.coset_max_rep(I, el) == c.max_rep
                assert W.coset_min_rep(I, el) == c.min_rep
            seen |= elements
        assert seen == set(W.all_elements())


def test_parabolic_elements_are_the_subgroup(system):
    # Referee: the closure of {e} under right multiplication by I.
    for code in ("A3", "A4", "B3", "H3"):
        W = system(code)
        for I in all_subsets(W.rank):
            sub = W.parabolic_elements(I)
            assert [z.sort_key for z in sub] == sorted(z.sort_key for z in sub)
            gens = [W.generators[s] for s in I]
            closure = {W.identity}
            frontier = [W.identity]
            while frontier:
                nxt = []
                for a in frontier:
                    for g in gens:
                        b = W.multiply(a, g)
                        if b not in closure:
                            closure.add(b)
                            nxt.append(b)
                frontier = nxt
            assert set(sub) == closure, (code, I)


def test_balanced_poincare_examples(system):
    W = system("A2")
    assert W.balanced_poincare([]) == LaurentPoly.one()
    assert W.balanced_poincare([0]) == LaurentPoly({1: 1, -1: 1})
    assert W.balanced_poincare([0, 1]) == LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})


@pytest.mark.parametrize("code", ["A3", "B2"])
def test_balanced_poincare_invariants(code, system):
    W = system(code)
    for I in all_subsets(W.rank):
        bp = W.balanced_poincare(I)
        assert bp.bar() == bp
        assert bp.eval_at_one() == len(W.parabolic_elements(I))


# -- parsing and membership ------------------------------------------------------


@pytest.mark.parametrize("code", ["A3", "B2", "H3"])
def test_parse_format_roundtrip(code, system):
    W = system(code)
    for el in W.all_elements():
        assert W.parse_element(W.format_element(el)) == el
    assert W.parse_element("e") == W.identity


def test_parse_errors(system):
    W = system("A2")
    with pytest.raises(CoxeterError):
        W.parse_element("sx")
    with pytest.raises(CoxeterError):
        W.generator_index("s9")
    with pytest.raises(CoxeterError):
        W.multiply(Element((5,)), W.identity)
    with pytest.raises(CoxeterError):
        W.multiply(Element((1, 1)), W.identity)  # non-canonical word
    with pytest.raises(CoxeterError):
        W.longest_element([7])


@pytest.mark.parametrize("bad", [True, 0.5, "0", -1, 2], ids=["True", "half", "str", "neg", "rank"])
def test_generator_index_checked_everywhere(bad, system):
    # One check serves every entry point: a generator index is an int, not a
    # bool, in range; anything else is a CoxeterError, never a TypeError or
    # a silent True == 1.
    from coxkl.hecke import HeckeAlgebra, HeckeElt

    W = system("A2")
    x = W.parse_element("st")
    calls = [
        lambda: W.element([0, bad]),
        lambda: W.apply_gen(x, bad),
        lambda: W.apply_gen(x, bad, "left"),
        lambda: HeckeElt.standard(W, x).mul_by_gen(bad),
        lambda: HeckeElt.standard(W, x).mul_by_gen(bad, "left"),
        lambda: HeckeAlgebra(W).bott_samelson([1, bad]),
        lambda: W.parabolic_elements([bad]),
        lambda: W.parabolic_elements([0, bad]),
    ]
    for call in calls:
        with pytest.raises(CoxeterError):
            call()


def test_parse_prefix_names():
    W = CoxeterSystem([[1, 3], [3, 1]], names=["s1", "s10"])
    el = W.parse_element("s10s1")
    assert el.word == (1, 0)
    assert W.parse_word("s1s1") == (0, 0)


def test_parse_needs_backtracking():
    # Unambiguous names where a longest-match-first scan would get stuck.
    W = CoxeterSystem([[1, 3, 2], [3, 1, 3], [2, 3, 1]], names=["ab", "a", "bc"])
    assert W.parse_word("abc") == (1, 2)
    assert W.parse_word("aba") == (0, 1)


def test_ambiguous_names_rejected():
    with pytest.raises(CoxeterError):
        CoxeterSystem([[1, 3, 2], [3, 1, 3], [2, 3, 1]], names=["a", "ab", "b"])


def _chain_matrix(bonds):
    n = len(bonds) + 1
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, b in enumerate(bonds):
        m[i][i + 1] = m[i + 1][i] = b
    return m


def _fork_matrix(arms):
    # Branch vertex 0 with three chains of the given edge counts, all 3-bonds.
    n = 1 + sum(arms)
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    v = 1
    for arm in arms:
        prev = 0
        for _ in range(arm):
            m[prev][v] = m[v][prev] = 3
            prev = v
            v += 1
    return m


def test_finite_type_classifier_exceptional_shapes():
    # The classifier itself, on shapes too large to enumerate in tests.
    from coxkl.coxeter import _classify_matrix

    assert _classify_matrix(_fork_matrix([1, 2, 2])) == ("E6", 51840)
    assert _classify_matrix(_fork_matrix([1, 2, 3])) == ("E7", 2903040)
    assert _classify_matrix(_fork_matrix([1, 2, 4])) == ("E8", 696729600)
    assert _classify_matrix(_fork_matrix([1, 2, 5])) is None  # affine E8
    assert _classify_matrix(_fork_matrix([2, 2, 2])) is None  # affine E6
    assert _classify_matrix(_fork_matrix([1, 1, 5])) == ("D8", 2**7 * 40320)
    assert _classify_matrix(_chain_matrix([3, 4, 3])) == ("F4", 1152)
    assert _classify_matrix(_chain_matrix([3, 4, 3, 3])) is None  # affine F4
    assert _classify_matrix(_chain_matrix([5, 3, 3])) == ("H4", 14400)
    assert _classify_matrix(_chain_matrix([5, 3, 3, 3])) is None
    assert _classify_matrix(_chain_matrix([3, 5, 3])) is None  # interior 5-bond
    assert _classify_matrix(_chain_matrix([4, 3, 3, 4])) is None  # affine C
    assert _classify_matrix(_chain_matrix([3] * 9)) == ("A10", 39916800)


def test_disconnected_diagram():
    W = CoxeterSystem([[1, 2], [2, 1]])
    assert W.order == 4
    assert W.type_label == "A1xA1"
    assert W.longest_element().length == 2
    assert len(W.cosets([0])) == 2
    assert W.multiply(W.generators[0], W.generators[1]) == W.multiply(
        W.generators[1], W.generators[0]
    )
