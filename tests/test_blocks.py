import copy
import itertools
import json

import pytest

from coxkl.blocks import (
    BlockData,
    DimTable,
    andersen_dims,
    andersen_table,
    equivariant_hom_series,
    make_block,
    total_hom_dim,
)
from coxkl.coxeter import Coset, CoxeterError, CoxeterSystem
from coxkl.hecke import HeckeAlgebra, MalformedKL

from oracles import (
    bar_matrix,
    dimtable_csv,
    dimtable_json,
    dimtable_text,
    parabolic_kl_bruteforce,
    poly_ring_series,
)


def all_subsets(rank):
    out = []
    for r in range(rank + 1):
        out.extend(itertools.combinations(range(rank), r))
    return out


def test_make_block_examples(system):
    W = system("A2")
    regular = make_block(W, [])
    assert len(regular.cosets) == 6
    assert regular.w_iota == W.identity
    assert regular.w_long.length == 3

    singular = make_block(W, [1])
    assert [W.format_element(c.max_rep) for c in singular.cosets] == ["t", "st", "sts"]
    assert singular.w_iota == W.parse_element("t")

    W3 = system("A3")
    assert len(make_block(W3, [0, 1]).cosets) == 4


def test_coset_of(system):
    W = system("A2")
    block = make_block(W, [1])
    assert block.coset_of(W.parse_element("ts")) == block.coset_of(W.parse_element("sts"))
    assert block.coset_of(W.identity).max_rep == W.parse_element("t")


@pytest.mark.parametrize("code", ["B3", "H3"])
def test_coset_of_every_element(code, system):
    W = system(code)
    for I in all_subsets(W.rank):
        block = make_block(W, I)
        for a in W.all_elements():
            c = block.coset_of(a)
            assert a in c.elements
            assert any(c is d for d in block.cosets)
            assert W.coset_min_rep(I, a) == min(c.elements, key=lambda z: z.sort_key)


def test_coset_of_rejects_cosets_out_of_order_or_missing(system):
    # coset_of bisects on max-rep ids, so it must check what it lands on: a
    # hand-built block with its cosets reversed or its first coset dropped
    # used to answer a wrong coset or raise a bare IndexError.
    W = system("A3")
    block = make_block(W, [0])
    reverse = BlockData(W, block.parabolic, block.w_long, block.w_iota, block.cosets[::-1])
    for a in W.all_elements():
        with pytest.raises(CoxeterError, match="no coset with max rep"):
            reverse.coset_of(a)
    first, rest = block.cosets[0], block.cosets[1:]
    dropped = BlockData(W, block.parabolic, block.w_long, block.w_iota, rest)
    for a in W.all_elements():
        if a in first:
            with pytest.raises(CoxeterError, match="no coset with max rep s1 "):
                dropped.coset_of(a)
        else:
            assert dropped.coset_of(a) is block.coset_of(a)


def test_queries_leave_system_and_block_unchanged():
    W = CoxeterSystem.from_type("B3")
    block = make_block(W, [0])
    w_before = copy.deepcopy(vars(W))
    # The memo keeps W itself, so the block's snapshot shares the system.
    b_before = copy.deepcopy(vars(block), {id(W): W})
    els = W.all_elements()
    for y in els:
        for x in els:
            W.bruhat_leq(y, x)
    for a in els:
        block.coset_of(a)
    assert vars(W) == w_before
    assert vars(block) == b_before


def test_andersen_dims_examples(system, algebra):
    W3, A3 = system("A3"), algebra("A3")
    regular = make_block(W3, [])
    c_of = regular.coset_of
    same = c_of(W3.parse_element("s2"))
    assert andersen_dims(regular, A3, same, same) == {0: 1}
    got = andersen_dims(regular, A3, c_of(W3.parse_element("s2")), c_of(W3.parse_element("s2s1s3s2")))
    assert got == {1: 1, 3: 1}

    W, A = system("A2"), algebra("A2")
    block = make_block(W, [1])
    ybar = block.coset_of(W.identity)  # max rep t
    xbar = block.coset_of(W.parse_element("ts"))  # max rep sts
    assert andersen_dims(block, A, ybar, xbar) == {2: 1}
    # empty when not Bruhat-comparable (longest reps)
    assert andersen_dims(block, A, xbar, ybar) == {}


def test_total_hom_dim(system, algebra):
    W3, A3 = system("A3"), algebra("A3")
    regular = make_block(W3, [])
    ybar = regular.coset_of(W3.parse_element("s2"))
    xbar = regular.coset_of(W3.parse_element("s2s1s3s2"))
    assert total_hom_dim(regular, A3, ybar, ybar) == 1
    assert total_hom_dim(regular, A3, ybar, xbar) == 2
    assert total_hom_dim(regular, A3, xbar, ybar) == 0


def test_andersen_table_a1(system, algebra):
    W, A = system("A1"), algebra("A1")
    table = andersen_table(make_block(W, []), A)
    assert table.row_labels == ("e", "s")
    assert table.cells == {
        ("e", "e"): {0: 1},
        ("s", "s"): {0: 1},
        ("e", "s"): {1: 1},
    }


@pytest.mark.parametrize("code", ["A3", "B2", "H3", "B3", "A4"])
def test_andersen_table_invariants(code, system, algebra):
    W, A = system(code), algebra(code)
    for I in all_subsets(W.rank):
        block = make_block(W, I)
        table = andersen_table(block, A)
        # The row-wise table against the per-pair reference.
        reference = {
            (block.label(yc), block.label(xc)): andersen_dims(block, A, yc, xc)
            for yc in block.cosets
            for xc in block.cosets
        }
        assert table.cells == {k: cell for k, cell in reference.items() if cell}
        assert len(table.cells) == sum(1 for cell in reference.values() if cell)
        labels = {block.label(c): c for c in block.cosets}
        for (rl, cl), cell in table.cells.items():
            y, x = labels[rl].max_rep, labels[cl].max_rep
            d = x.length - y.length
            assert W.bruhat_leq(y, x)
            assert all(0 <= i <= d and (d - i) % 2 == 0 for i in cell)
            assert sum(cell.values()) == A.kl_polynomial(y, x).eval_at_one()
        for c in block.cosets:
            lab = block.label(c)
            assert table.cells[(lab, lab)] == {0: 1}


def _word_label(W, x):
    return "".join(W.generator_names[s] for s in x.word) or "e"


@pytest.mark.parametrize("code", ["A3", "B3", "H3", "A4", "D4"])
def test_andersen_table_matches_the_parabolic_referee(code, system, algebra):
    # The referee solves each block's own bar-invariance problem in the
    # parabolic module and finds the cosets by closing under I: it shares
    # neither the coset partition nor the KL recursion with andersen_table.
    W, A = system(code), algebra(code)
    cols = bar_matrix(W)
    for I in all_subsets(W.rank):
        ref = parabolic_kl_bruteforce(W, I, cols)
        table = andersen_table(make_block(W, I), A)
        assert table.row_labels == tuple(_word_label(W, x) for x in sorted(ref, key=lambda x: x.sort_key)), I
        expected = {(_word_label(W, y), _word_label(W, x)): n for x, col in ref.items() for y, n in col.items()}
        assert table.cells == expected, I


def test_andersen_table_does_not_depend_on_coset_order(system, algebra):
    # The table finds the cosets below a column by max-rep id, not by their
    # position in block.cosets, so a hand-built block in reverse order reads
    # the same cells, and renders them in its own order.
    W, A = system("A3"), algebra("A3")
    for I in all_subsets(W.rank):
        block = make_block(W, I)
        reverse = BlockData(block.system, block.parabolic, block.w_long, block.w_iota, block.cosets[::-1])
        table, table_rev = andersen_table(block, A), andersen_table(reverse, A)
        assert table_rev.row_labels == table.row_labels[::-1]
        assert table_rev.cells == table.cells, I
        got, want = _renders(table_rev)
        assert got == want, I


def test_andersen_table_of_a_block_that_lists_a_coset_twice(system, algebra):
    # Each listing of the coset s is a row and a column, filled alike, in the block's order.
    W, A = system("A2"), algebra("A2")
    block = make_block(W, [0])
    c = block.cosets  # max reps s, ts, sts
    table = andersen_table(BlockData(W, block.parabolic, block.w_long, block.w_iota, (c[1], c[0], c[2], c[0])), A)
    assert table.cells == {
        ("s", "s"): {0: 1}, ("ts", "ts"): {0: 1}, ("sts", "sts"): {0: 1},
        ("s", "ts"): {1: 1}, ("ts", "sts"): {1: 1}, ("s", "sts"): {2: 1},
    }
    assert table.to_text().splitlines()[1:] == [
        "       ts     s   sts     s",
        "ts  {0:1}     . {1:1}     .",
        "s   {1:1} {0:1} {2:1} {0:1}",
        "sts     .     . {0:1}     .",
        "s   {1:1} {0:1} {2:1} {0:1}",
    ]
    assert table.to_csv().split() == [
        "row,col,i,dim",
        "ts,ts,0,1", "ts,sts,1,1",
        "s,ts,1,1", "s,s,0,1", "s,sts,2,1", "s,s,0,1",
        "sts,sts,0,1",
        "s,ts,1,1", "s,s,0,1", "s,sts,2,1", "s,s,0,1",
    ]
    data = json.loads(table.to_json())
    assert data["rows"] == data["cols"] == ["ts", "s", "sts", "s"]
    assert data["cells"] == {
        "s,s": {"0": 1}, "ts,ts": {"0": 1}, "sts,sts": {"0": 1},
        "s,ts": {"1": 1}, "ts,sts": {"1": 1}, "s,sts": {"2": 1},
    }
    got, want = _renders(table)
    assert got == want


@pytest.mark.parametrize(
    "parabolic, x, y, h, match",
    [
        # h_{s,sts} = v^5 lies above l(sts) - l(s) = 2; the block of I = {s} has
        # max reps s, ts and sts, so it keeps the pair (s, sts) too.
        ([], "sts", "s", {5: 1}, r"h\(s, sts\)"),
        ([0], "sts", "s", {5: 1}, r"h\(s, sts\)"),
        ([], "ts", "st", {1: 1}, r"h\(st, ts\)"),  # y as long as x, in a row the table walks
        ([], "sts", "sts", {2: 1}, "unitriangular"),
        ([0], "sts", "sts", {2: 1}, "unitriangular"),
        ([0], "sts", "sts", None, "unitriangular"),  # no diagonal
    ],
)
def test_andersen_table_checks_the_entries_it_reads(parabolic, x, y, h, match, system):
    # The table reads memo rows as andersen_dims does: a corrupt entry raises MalformedKL.
    W = system("A2")
    block = make_block(W, parabolic)
    xi, yi = W._id(W.parse_element(x)), W._id(W.parse_element(y))
    A = HeckeAlgebra(W)
    A.kl_table()
    A._h[xi] = row = dict(A._h[xi])
    if h is None:
        del row[yi]
    else:
        row[yi] = A._intern(h)
    with pytest.raises(MalformedKL, match=match):
        andersen_table(block, A)
    if x != y:
        with pytest.raises(MalformedKL):
            andersen_dims(block, A, block.coset_of(W._el(yi)), block.coset_of(W._el(xi)))


def test_readouts_reject_a_coset_of_another_partition(system, algebra):
    # A coset is read at its max rep, which must have every s in I as a descent.
    # The coset of e in the regular block has max rep e, which s takes up: the
    # readouts used to answer h_{e,sts} = v^3 for it, though the coset of e
    # under I = {s} has max rep s and h_{s,sts} = v^2.
    W, A = system("A2"), algebra("A2")
    block, regular = make_block(W, [0]), make_block(W, [])
    assert andersen_dims(block, A, block.coset_of(W.identity), block.cosets[-1]) == {2: 1}
    for query in (andersen_dims, total_hom_dim):
        with pytest.raises(CoxeterError, match="e is not the max rep"):
            query(block, A, regular.cosets[0], block.cosets[-1])
        with pytest.raises(CoxeterError, match="e is not the max rep"):
            query(block, A, block.cosets[0], regular.cosets[0])
    with pytest.raises(CoxeterError, match="e is not the max rep"):
        equivariant_hom_series(block, A, regular.cosets[0], block.cosets[-1], 4)
    # Every I and J of A3: a coset of W_J is accepted by the block of I exactly
    # when its max rep is one of the block's, and then reads as that coset.
    W, A = system("A3"), algebra("A3")
    for I in all_subsets(W.rank):
        block = make_block(W, I)
        tops = {c.max_rep for c in block.cosets}
        top = block.cosets[-1]
        for J in all_subsets(W.rank):
            for c in make_block(W, J).cosets:
                if c.max_rep in tops:
                    own = block.coset_of(c.max_rep)
                    assert andersen_dims(block, A, c, top) == andersen_dims(block, A, own, top)
                    assert andersen_dims(block, A, top, c) == andersen_dims(block, A, top, own)
                else:
                    with pytest.raises(CoxeterError, match="is not the max rep"):
                        andersen_dims(block, A, c, top)
                    with pytest.raises(CoxeterError, match="is not the max rep"):
                        andersen_dims(block, A, top, c)


def test_andersen_table_rejects_a_coset_listed_at_a_non_max_rep(system, algebra):
    # A hand-built block whose first coset is {e} under I = {s}: its "max rep"
    # e has the ascent s.  The table used to print rows e,e, e,ts and e,sts.
    W, A = system("A2"), algebra("A2")
    block = make_block(W, [0])
    e = W.identity
    bad = BlockData(W, block.parabolic, block.w_long, block.w_iota, (Coset(e, e, (e,)), *block.cosets[1:]))
    with pytest.raises(CoxeterError, match="e is not the max rep"):
        andersen_table(bad, A)
    # The same coset anywhere in the list, and a coset of another partition.
    other = make_block(W, [1]).cosets[0]  # max rep t, which s takes up
    for cosets in (block.cosets[1:] + (Coset(e, e, (e,)),), (other, *block.cosets[1:])):
        with pytest.raises(CoxeterError, match="is not the max rep"):
            andersen_table(BlockData(W, block.parabolic, block.w_long, block.w_iota, cosets), A)


def test_tables_reject_an_algebra_over_another_system(system, algebra):
    block = make_block(system("A2"), [0])
    y, x = block.cosets[0], block.cosets[-1]
    # An algebra over an equal system (same matrix and names) reads the same table.
    equal = HeckeAlgebra(CoxeterSystem.from_type("A2"))
    assert equal.system is not block.system
    ours, theirs = andersen_table(block, algebra("A2")), andersen_table(block, equal)
    for fmt in ("to_text", "to_csv", "to_json"):
        assert getattr(theirs, fmt)() == getattr(ours, fmt)()
    for yc in block.cosets:
        for xc in block.cosets:
            assert andersen_dims(block, equal, yc, xc) == andersen_dims(block, algebra("A2"), yc, xc)
    # Other generator names or another matrix are another system.
    renamed = HeckeAlgebra(CoxeterSystem(system("A2").coxeter_matrix, ["a", "b"]))
    for other in (renamed, algebra("B2")):
        with pytest.raises(CoxeterError):
            andersen_table(block, other)
        with pytest.raises(CoxeterError):
            andersen_dims(block, other, y, x)


def test_singular_consistent_with_regular(system, algebra):
    # A cell depends only on the longest representatives: the same pair
    # queried through the regular block gives the same answer.
    W, A = system("A3"), algebra("A3")
    regular = make_block(W, [])
    for I in all_subsets(W.rank):
        block = make_block(W, I)
        for yc in block.cosets:
            for xc in block.cosets:
                via_block = andersen_dims(block, A, yc, xc)
                via_regular = andersen_dims(
                    regular, A, regular.coset_of(yc.max_rep), regular.coset_of(xc.max_rep)
                )
                assert via_block == via_regular


def test_equivariant_examples(system, algebra):
    W, A = system("A1"), algebra("A1")
    block = make_block(W, [])
    e_bar = block.coset_of(W.identity)
    s_bar = block.coset_of(W.parse_element("s"))
    dims = equivariant_hom_series(block, A, e_bar, s_bar, 9, rank=1)
    assert dims == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert dims[0] == 0  # no degree-0 maps below the diagonal
    dims2 = equivariant_hom_series(block, A, s_bar, s_bar, 8, rank=2)
    assert dims2 == [1, 0, 2, 0, 3, 0, 4, 0, 5]


def test_equivariant_default_rank(system, algebra):
    W, A = system("A2"), algebra("A2")
    block = make_block(W, [])
    e_bar = block.coset_of(W.identity)
    assert equivariant_hom_series(block, A, e_bar, e_bar, 4) == equivariant_hom_series(
        block, A, e_bar, e_bar, 4, rank=W.rank
    )
    assert equivariant_hom_series(block, A, e_bar, e_bar, 6, rank=1) == poly_ring_series(1, 6)


def test_equivariant_convolution_crosscheck(system, algebra):
    W, A = system("A3"), algebra("A3")
    # n_max = 0 and 3 leave terms above n_max; 3 is odd.
    for I in ([], [1], [0, 2]):
        block = make_block(W, I)
        for n_max, rank in itertools.product((0, 3, 12), (1, 2, 3, 5)):
            series = poly_ring_series(rank, n_max)
            for yc in block.cosets:
                for xc in block.cosets:
                    dims = andersen_dims(block, A, yc, xc)
                    expect = [
                        sum(c * (series[n - i] if 0 <= n - i else 0) for i, c in dims.items())
                        for n in range(n_max + 1)
                    ]
                    got = equivariant_hom_series(block, A, yc, xc, n_max, rank)
                    assert got == expect


def test_equivariant_monotone_consistency(system, algebra):
    W, A = system("B2"), algebra("B2")
    block = make_block(W, [0])
    ys, xs = block.cosets[0], block.cosets[-1]
    short = equivariant_hom_series(block, A, ys, xs, 6)
    long = equivariant_hom_series(block, A, ys, xs, 12)
    assert long[:7] == short


def test_equivariant_validation(system, algebra):
    W, A = system("A1"), algebra("A1")
    block = make_block(W, [])
    c = block.cosets[0]
    with pytest.raises(ValueError):
        equivariant_hom_series(block, A, c, c, -1)
    with pytest.raises(ValueError):
        equivariant_hom_series(block, A, c, c, 4, rank=0)


def test_dimtable_serializations(system, algebra):
    W, A = system("A2"), algebra("A2")
    table = andersen_table(make_block(W, [1]), A)
    data = json.loads(table.to_json())
    assert data["rows"] == ["t", "st", "sts"]
    assert data["cols"] == ["t", "st", "sts"]
    assert data["cells"]["t,sts"] == {"2": 1}
    assert data["display_names"] == ["lambda[t]", "lambda[st]", "lambda[sts]"]

    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "row,col,i,dim"
    assert "t,sts,2,1" in lines
    assert len(lines) == 1 + 6  # header + one line per nonzero (cell, i)

    text = table.to_text()
    assert "{2:1}" in text
    assert text.endswith("\n")


def test_dimtable_text_golden(system, algebra):
    table = andersen_table(make_block(system("A2"), [1]), algebra("A2"))
    body = table.to_text().splitlines()[1:]  # caption line is prose
    assert body == [
        "        t    st   sts",
        "t   {0:1} {1:1} {2:1}",
        "st      . {0:1} {1:1}",
        "sts     .     . {0:1}",
    ]


def _renders(table):
    # The three formats of the table and of the cell-by-cell oracle renderers.
    return (table.to_text(), table.to_csv(), table.to_json()), (
        dimtable_text(table), dimtable_csv(table), dimtable_json(table)
    )


@pytest.mark.parametrize("code", ["A1", "A2", "B2", "G2", "A3", "B3", "H3", "A4", "D4"])
def test_renderers_match_the_oracle_on_every_block(code, system, algebra):
    W, A = system(code), algebra(code)
    for I in all_subsets(W.rank):
        got, want = _renders(andersen_table(make_block(W, I), A))
        assert got == want, I


def _table(rows, cols, cells, caption="caption"):
    return DimTable(tuple(rows), tuple(cols), tuple(f"lambda[{r}]" for r in rows), cells, caption)


@pytest.mark.parametrize(
    "table",
    [
        # an empty cell: "." in text, no csv line, {} in json
        _table(["a", "b"], ["a", "b"], {("a", "a"): {0: 1}, ("a", "b"): {}, ("b", "b"): {0: 1}}),
        # keys outside the labels, one wider than every cell inside them
        _table(["a"], ["a"], {("a", "a"): {0: 1}, ("z", "a"): {0: 1, 2: 1, 4: 1}, ("a", "z"): {1: 2}}),
        # row labels that differ from the column labels, one cell shared by two keys
        _table(["r1", "r2", "r3"], ["c1", "c2"], {("r3", "c1"): {1: 1}, ("r1", "c2"): {0: 1, 2: 3}}),
        # an empty row label and an empty column label
        _table(["", "a"], ["", "a"], {("", ""): {0: 1}, ("", "a"): {1: 1}}),
        _table(["a"], ["", "a"], {("a", "a"): {0: 1}}),
        # a label wider than every cell, and multi-digit dimensions and degrees
        _table(["a", "long_label"], ["long_label", "a"], {("a", "a"): {10: 123}, ("long_label", "a"): {3: -45}}),
        # cells inserted out of row and column order
        _table(["a", "b"], ["a", "b"], {("b", "b"): {0: 1}, ("a", "b"): {2: 1, 0: 5}, ("a", "a"): {0: 1}}),
        # repeated labels
        _table(["a", "a"], ["a", "b", "a"], {("a", "a"): {0: 1}, ("a", "b"): {1: 1}}),
        # ("a,b", "c") and ("a", "b,c") share the json key "a,b,c"
        _table(["a", "a,b"], ["c", "b,c"], {("a,b", "c"): {1: 1}, ("a", "b,c"): {2: 1}}),
        # labels and a caption that json escapes: a quote, a backslash, non-ASCII
        _table(['q"\\', "ü"], ['q"\\', "ü"], {('q"\\', "ü"): {1: 1}, ("ü", "ü"): {0: 1}}, 'say "ü"\\'),
        _table(["a"], ["a"], {("a", "a"): {0: 1}}),  # 1x1
        _table(["a"], ["a"], {}),  # 1x1 and empty
        _table(["a", "b"], [], {("a", "x"): {0: 1}}),  # no columns
        _table([], [], {}),  # no rows and no columns
    ],
)
def test_renderers_match_the_oracle_on_hand_built_tables(table):
    got, want = _renders(table)
    assert got == want


def test_renderers_on_a_table_with_no_rows():
    # The oracle's text renderer takes max() over no rows and raises; the
    # renderers give each column the width of its label, at least 1.
    table = _table([], ["a", "", "bb"], {("x", "a"): {0: 1}})
    with pytest.raises(ValueError):
        dimtable_text(table)
    assert table.to_text() == "caption\n  a   bb\n"
    assert table.to_csv() == dimtable_csv(table) == "row,col,i,dim\n"
    assert table.to_json() == dimtable_json(table)
