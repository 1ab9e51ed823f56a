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
        block, sub = make_block(W, I), W.parabolic_elements(I)
        for a in W.all_elements():
            c = block.coset_of(a)
            assert a in [W.multiply(c.min_rep, z) for z in sub]
            assert any(c is d for d in block.cosets)
            assert W.coset_min_rep(I, a) == c.min_rep
            assert W.coset_max_rep(I, a) == c.max_rep


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
    in_first = {W.multiply(first.min_rep, z) for z in W.parabolic_elements(block.parabolic)}
    for a in W.all_elements():
        if a in in_first:
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


def test_andersen_table_refuses_cosets_out_of_max_rep_order(system, algebra):
    # The table reads the cosets below a column as a prefix of block.cosets, so a
    # hand-built block in any other order is refused, as coset_of refuses it.  A
    # subset of the cosets, still in order, is a block of its own and renders.
    W, A = system("A3"), algebra("A3")
    for I in all_subsets(W.rank):
        block = make_block(W, I)
        if len(block.cosets) > 1:
            reverse = BlockData(W, block.parabolic, block.w_long, block.w_iota, block.cosets[::-1])
            with pytest.raises(CoxeterError, match="once each, in max-rep order"):
                andersen_table(reverse, A)
        full = andersen_table(block, A)
        subset = BlockData(W, block.parabolic, block.w_long, block.w_iota, block.cosets[::2])
        table = andersen_table(subset, A)
        assert table.row_labels == full.row_labels[::2]
        assert table.cells == {(r, c): full.cells[r, c] for r, c in full.cells if {r, c} <= set(table.row_labels)}
        got, want = _renders(table)
        assert got == want, I


def test_andersen_table_of_a_block_that_lists_a_coset_twice(system, algebra):
    # Each coset is a row and a column once: a block that lists one twice, next to
    # itself or apart, is refused, and so is one whose repeat is also out of order.
    W, A = system("A2"), algebra("A2")
    block = make_block(W, [0])
    c = block.cosets  # max reps s, ts, sts
    for cosets in ((c[0], c[0], c[1], c[2]), (c[0], c[1], c[2], c[0]), (c[1], c[0], c[2], c[0])):
        with pytest.raises(CoxeterError, match="once each, in max-rep order"):
            andersen_table(BlockData(W, block.parabolic, block.w_long, block.w_iota, cosets), A)


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
    bad = BlockData(W, block.parabolic, block.w_long, block.w_iota, (Coset(e, e), *block.cosets[1:]))
    with pytest.raises(CoxeterError, match="e is not the max rep"):
        andersen_table(bad, A)
    # The same coset anywhere in the list, and a coset of another partition.
    other = make_block(W, [1]).cosets[0]  # max rep t, which s takes up
    for cosets in (block.cosets[1:] + (Coset(e, e),), (other, *block.cosets[1:])):
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
    # Only an int that is no bool: rank 2.5 used to answer a float count, True to be taken as 1.
    for n_max, rank in ((2.0, None), (True, None), (4, 2.5), (4, True), (4, "2")):
        with pytest.raises(TypeError, match="must be an int"):
            equivariant_hom_series(block, A, c, c, n_max, rank)
    W, A = system("A2"), algebra("A2")
    block = make_block(W, [])
    e, sts = block.cosets[0], block.cosets[-1]
    with pytest.raises(TypeError, match="rank must be an int, got 2.5"):
        equivariant_hom_series(block, A, e, sts, 6, rank=2.5)
    assert equivariant_hom_series(block, A, e, sts, 6, rank=2) == [0, 0, 0, 1, 0, 2, 0]


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


@pytest.mark.parametrize(
    "matrix, names, parabolic, pins",
    [
        # labels and a caption that json escapes: a quote, a backslash, non-ASCII
        pytest.param(
            ((1, 3), (3, 1)), ['q"\\', "ü"], [], ['"e,q\\"\\\\":{"1":1}', '"\\u00fc,\\u00fc":{"0":1}'],
            id="json-escapes",
        ),
        # '"' sorts before ",": the key a",a" comes before a,a though the row a" comes after a
        pytest.param(((1, 3), (3, 1)), ['"', "a"], [], ['"a\\",a\\"":{"0":1},"a,\\"a":{"1":1}'], id="quote-names"),
        # a two-digit degree and labels wider than their cells
        pytest.param("A4", None, [], ['"e,s1s2s1s3s2s1s4s3s2s1":{"10":1}'], id="a4-regular"),
        pytest.param("A1", None, [0], ['"cells":{"s,s":{"0":1}}'], id="1x1"),
    ],
)
def test_renderers_match_the_oracle_on_edge_blocks(matrix, names, parabolic, pins, system, algebra):
    if isinstance(matrix, str):
        W, A = system(matrix), algebra(matrix)
    else:
        W = CoxeterSystem(matrix, names)
        A = HeckeAlgebra(W)
    got, want = _renders(andersen_table(make_block(W, parabolic), A))
    assert got == want
    for pin in pins:
        assert pin in got[2]


def _hand_built_table(W, A, picks):
    # The table of A2's block for I = {s} when it lists only the cosets at picks.
    block = make_block(W, [0])
    cosets = tuple(block.cosets[i] for i in picks)
    return andersen_table(BlockData(W, block.parabolic, block.w_long, block.w_iota, cosets), A)


# table13: a block that lists no coset, so a table with no rows and no columns.
@pytest.mark.parametrize("picks", [pytest.param((), id="table13")])
def test_renderers_match_the_oracle_on_hand_built_tables(picks, system, algebra):
    got, want = _renders(_hand_built_table(system("A2"), algebra("A2"), picks))
    assert got == want


def test_renderers_on_a_table_with_no_rows(system, algebra):
    # A block that lists no coset: no rows and no columns, in all three formats.
    table = _hand_built_table(system("A2"), algebra("A2"), ())
    assert table.row_labels == table.col_labels == () and len(table.cells) == 0
    got = _renders(table)[0]
    assert got[0] == table.caption + "\n \n"
    assert got[1] == "row,col,i,dim\n"
    assert json.loads(got[2])["cells"] == {}


def test_a_dimtable_holds_only_the_cells_andersen_table_builds(system, algebra):
    # The renderers read the cells by position, so a table built from a dict, even of
    # an andersen_table's own cells, or from those cells under other labels, is refused.
    table = andersen_table(make_block(system("A2"), [0]), algebra("A2"))
    labels, names = table.row_labels, table.display_names
    for cells in ({}, {("s", "s"): {0: 1}}, dict(table.cells.items())):
        with pytest.raises(TypeError, match="positional columns"):
            DimTable(labels, labels, names, cells, table.caption)
    with pytest.raises(TypeError, match="positional columns"):
        DimTable(labels[::-1], labels[::-1], names[::-1], table.cells, table.caption)
    assert DimTable(labels, labels, names, table.cells, "another caption").cells == table.cells


def test_table_cells_answer_only_label_pairs(system, algebra):
    # cells answers as a dict of the same cells does: a string, a 1-tuple, a
    # 3-tuple or a pair outside the labels is no key.
    table = andersen_table(make_block(system("A1"), []), algebra("A1"))
    plain = dict(table.cells.items())
    for key in ("ss", "es", ("s",), ("s", "s", "x"), ("s", "x"), ("s", "e"), ("e", "s")):
        assert (key in table.cells) is (key in plain), key
        assert table.cells.get(key) == plain.get(key), key
    assert table.cells["e", "s"] == {1: 1}
    with pytest.raises(KeyError):
        table.cells["ss"]


def test_table_repr_prints_its_cells(system, algebra, tmp_path):
    # The cells by column, then row: the same whether the memo rows were computed or loaded.
    W = system("A3")
    computed, loaded = HeckeAlgebra(W), HeckeAlgebra(W)
    computed.kl_table()
    computed.save_cache(tmp_path / "kl.json")
    assert loaded.load_cache(tmp_path / "kl.json")
    for I in ([], [0]):
        assert repr(andersen_table(make_block(W, I), loaded)) == repr(andersen_table(make_block(W, I), computed))
    table = andersen_table(make_block(system("A2"), [0]), HeckeAlgebra(system("A2")))
    assert repr(table.cells) == repr(dict(table.cells.items()))
    assert "object at" not in repr(table)
    assert repr(table) == (
        "DimTable(row_labels=('s', 'ts', 'sts'), col_labels=('s', 'ts', 'sts'), "
        "display_names=('lambda[s]', 'lambda[ts]', 'lambda[sts]'), "
        "cells={('s', 's'): {0: 1}, ('s', 'ts'): {1: 1}, ('ts', 'ts'): {0: 1}, "
        "('s', 'sts'): {2: 1}, ('ts', 'sts'): {1: 1}, ('sts', 'sts'): {0: 1}}, "
        f"caption={table.caption!r})"
    )
