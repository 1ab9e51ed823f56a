import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import coxkl.cli as cli
from coxkl.hecke import CACHE_SCHEMA, MalformedKL

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args, env_cache=None, monkeypatch=None):
    """Run main() in-process, capturing stdout; returns (status, text)."""
    buf = io.StringIO()
    old = sys.stdout
    if env_cache is not None:
        os.environ[cli.CACHE_DIR_ENV] = str(env_cache)
    try:
        sys.stdout = buf
        status = cli.main(args)
    finally:
        sys.stdout = old
        if env_cache is not None:
            del os.environ[cli.CACHE_DIR_ENV]
    return status, buf.getvalue()


def run_cli_err(args):
    """Run main() in-process; returns (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(args)
    return status, out.getvalue(), err.getvalue()


def _cache_dir(monkeypatch, path, group):
    """Make the directory path and point COXKL_CACHE_DIR at it; returns the KL
    cache file that a run on --type group reads and writes there."""
    from coxkl import CoxeterSystem

    path.mkdir()
    monkeypatch.setenv(cli.CACHE_DIR_ENV, str(path))
    return path / f"{CoxeterSystem.from_type(group).fingerprint}.json"


def _golden_argv(argv):
    # The --matrix file of the golden grid lives next to it.
    return [str(DATA / a) if a == "matrix_a_bb_c.json" else a for a in argv]


def test_readme_examples():
    # Each "$ coxkl ..." line of the README's example block, "| head -N"
    # included, prints the lines that follow it there.
    block = README.read_text(encoding="utf-8").split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = [chunk.split("\n", 1) for chunk in block.split("$ coxkl ")[1:]]
    assert len(examples) == 3
    for command, shown in examples:
        argv, _, head = command.partition(" | head -")
        status, out = run_cli(shlex.split(argv))
        assert status == 0
        lines = out.splitlines(keepends=True)
        assert "".join(lines[: int(head)] if head else lines) == shown, command


def test_ih_example():
    status, out = run_cli(["--type", "A2", "--cmd", "ih", "--x", "sts", "--format", "text"])
    assert status == 0
    assert out == "1 + 2q + 2q^2 + q^3\n"


def test_kl_example():
    status, out = run_cli(["--type", "A1", "--cmd", "kl", "--y", "e", "--x", "s"])
    assert status == 0
    assert out == "h(e, s) = v\nP(e, s) = 1\n"


def test_kl_json():
    status, out = run_cli(["--type", "A3", "--cmd", "kl", "--y", "s2", "--x", "s2s1s3s2", "--format", "json"])
    assert status == 0
    data = json.loads(out)
    assert data == {"y": "s2", "x": "s2s1s3s2", "h": [[1, 1], [3, 1]], "P": [[0, 1], [1, 1]]}


def test_andersen_csv_shape():
    status, out = run_cli(["--type", "A3", "--parabolic", "s2", "--cmd", "andersen", "--format", "csv"])
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,col,i,dim"
    rows = {tuple(line.split(",")[:2]) for line in lines[1:]}
    labels = {r for r, _ in rows} | {c for _, c in rows}
    assert len(labels) == 12  # 24 / |W_{s2}| cosets
    # diagonal cells present with i=0, dim=1
    for lab in labels:
        assert f"{lab},{lab},0,1" in lines[1:]


def test_bs_text():
    status, out = run_cli(["--type", "A2", "--cmd", "bs", "--word", "sts"])
    assert status == 0
    assert out == "s: 1\nsts: 1\n"


def test_equivariant_text():
    status, out = run_cli(
        ["--type", "A1", "--cmd", "equivariant", "--y", "e", "--x", "s", "--rank", "1", "--n-max", "8"]
    )
    assert status == 0
    assert out == "0 1 0 1 0 1 0 1 0\n"


def test_audit_text_passes():
    status, out = run_cli(["--type", "A2", "--cmd", "audit"])
    assert status == 0
    assert out.strip().splitlines()[-1] == "audit: PASS"
    assert "FAIL" not in out


def test_usage_errors():
    # Each argv exits 1 with the stderr recorded in cli_golden.json.
    golden = {tuple(g["argv"]): g["stderr"] for g in json.loads((DATA / "cli_golden.json").read_text())}
    for argv in (
        ["--cmd", "ih", "--x", "e"],  # missing group
        ["--type", "A2", "--cmd", "bogus"],  # unknown command
        ["--type", "A2", "--cmd", "ih"],  # missing element argument
        ["--type", "A2", "--cmd", "ih", "--x", "zz"],  # unparsable element
        ["--type", "A2", "--parabolic", "s9", "--cmd", "andersen"],  # parabolic name outside the group
        ["--type", "Q7", "--cmd", "ih", "--x", "e"],  # bad type code
        ["--type", "A1", "--cmd", "equivariant", "--y", "e", "--x", "s", "--n-max", "-3"],  # bad n-max
        ["--matrix", "/nonexistent.json", "--cmd", "ih", "--x", "e"],  # missing matrix file
        ["--type", "A2", "--cmd", "ih", "--x", "e", "--cache", "kl.json"],  # the retired cache flag
    ):
        status, out, err = run_cli_err(argv)
        assert (status, out) == (1, ""), argv
        assert err == golden[tuple(argv)], argv


def test_parse_errors_are_one_usage_error_line(tmp_path, monkeypatch):
    # Whatever argparse refuses is one "usage error:" line and status 1 on every
    # Python, not argparse's usage block; --cache is refused and writes no file.
    # A rank with 2^rank elements over the bound, and a rank that int() cannot
    # read (a superscript digit), are refused before any work.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CACHE_DIR_ENV, raising=False)
    for argv, message in (
        (["--type", "A2", "--cmd", "ih", "--x", "e", "--cache", "kl.json"], "unrecognized arguments: --cache kl.json"),
        (["--type", "A2", "--cmd", "ih", "--x", "e", "--bogus"], "unrecognized arguments: --bogus"),
        (["--type", "A2", "--x", "e"], "the following arguments are required: --cmd"),
        (["--type", "A2000", "--cmd", "ih", "--x", "e"],
         "rank 2000 gives at least 2^2000 elements, above the element bound 10000000"),
        (["--type", "A\u00b2", "--cmd", "ih", "--x", "e"],
         "unknown type code 'A\u00b2' (expected e.g. A3, B2, D4, G2, F4, H3)"),
    ):
        assert run_cli_err(argv) == (1, "", f"usage error: {message}\n"), argv
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_readme_names_the_parser_options():
    # The README's CLI section, up to the next "## " heading, names exactly the
    # parser's options besides --help: no retired flag stays, no new one is left out.
    text = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    options = {s for a in cli.build_parser()._actions for s in a.option_strings if s.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z-]*", text)) == options - {"--help"}


def test_internal_inconsistency_exit_code(monkeypatch):
    def boom(algebra, x):
        raise MalformedKL("forced")

    monkeypatch.setattr(cli, "ih_poincare", boom)
    status, _ = run_cli(["--type", "A2", "--cmd", "ih", "--x", "sts"])
    assert status == 2


def _tampered_cache(path, group, y, x, h):
    # A cache of group whose one row, that of x, holds h as h_{y,x}; with h
    # None, the full table of group less h_{y,x}.
    from coxkl import CoxeterSystem, HeckeAlgebra

    W = CoxeterSystem.from_type(group)
    a = HeckeAlgebra(W)
    xi, yi = W._id(W.parse_element(x)), W._id(W.parse_element(y))
    if h is None:
        a.kl_table()
        del a._h[xi][yi]
    else:
        a._h[xi] = {yi: a._intern(h), xi: a._intern({0: 1})}
    a.save_cache(path)
    return path


TAMPERED = [
    ("A2", "e", "t", {2: 1}, ["--cmd", "h", "--y", "e", "--x", "st"]),  # wrong parity
    ("A2", "e", "st", {5: 1}, ["--cmd", "audit"]),  # impossible degree
    # h_{e,sts} = 7v^2 has the wrong parity for l(sts) = 3.
    ("A2", "e", "sts", {2: 7}, ["--cmd", "h", "--y", "e", "--x", "sts"]),
    ("A2", "e", "sts", {2: 7}, ["--cmd", "bs", "--word", "sts"]),
    ("A2", "e", "sts", {2: 7}, ["--cmd", "andersen"]),
    ("A2", "e", "sts", {2: 7}, ["--cmd", "equivariant", "--y", "e", "--x", "sts"]),
    # Degree and parity fit: 5v^2 has P(0) = 0, and s3 is not below s1s2.
    ("A3", "e", "s2s1s3s2", {2: 5}, ["--cmd", "h", "--y", "e", "--x", "s2s1s3s2"]),
    ("A3", "s3", "s1s2", {1: 1}, ["--cmd", "h", "--y", "s3", "--x", "s1s2"]),
    # A full table less h_{e,s2s1s3s2}: the row of x must cover [e, x].
    ("A3", "e", "s2s1s3s2", None, ["--cmd", "h", "--y", "e", "--x", "s2s1s3s2"]),
    ("A3", "e", "s2s1s3s2", None, ["--cmd", "ih", "--x", "s2s1s3s2"]),
]


def test_tampered_cache_exits_2(tmp_path, monkeypatch):
    # Loaded rows and the rows computed on top of them are checked alike:
    # exit 2, nothing on stdout, and the cache file is not rewritten.
    for i, (group, y, x, h, argv) in enumerate(TAMPERED):
        path = _tampered_cache(_cache_dir(monkeypatch, tmp_path / f"cache-{i}", group), group, y, x, h)
        before = path.read_bytes()
        status, out, err = run_cli_err(["--type", group, *argv])
        assert (status, out) == (2, ""), argv
        assert err.startswith("internal inconsistency: "), argv
        assert path.read_bytes() == before, argv


def test_cache_pairs_that_save_cache_never_writes(tmp_path, monkeypatch):
    # The A2 table is saved with h_{e,sts} = v^3 as the last polynomial,
    # [[3,1]], and the row of sts as [5,[3,...]].  That polynomial with a
    # float, string or boolean pair, or a position that names no polynomial,
    # is a mismatched cache (a warning, stdout as without a cache, the file
    # rewritten); a zero coefficient, an exponent twice, a row of the wrong
    # length, a row listed twice or off its orbit's smallest id is an
    # inconsistency (exit 2, no stdout, the file untouched).  The other
    # positions and rows that load_cache refuses are in tests/test_hecke.py.
    from coxkl import CoxeterSystem, HeckeAlgebra

    W = CoxeterSystem.from_type("A2")
    args = ["--type", "A2", "--cmd", "ih", "--x", "sts"]
    status, plain = run_cli(args)
    a = HeckeAlgebra(W)
    a.kl_table()
    a.save_cache(tmp_path / "good.json")
    good = (tmp_path / "good.json").read_text()
    poly, row = ',[[3,1]]],"kl"', "[5,[3,2,2,1,1,0]]"
    assert poly in good and row in good and "[3,[2,1,1,0]]" in good
    cache = _cache_dir(monkeypatch, tmp_path / "cache", "A2")
    for old, new, mismatched in [
        (poly, ',[[3.0,1]]],"kl"', True),
        (poly, ',[["3","1"]]],"kl"', True),
        (poly, ',[[3,true]]],"kl"', True),
        (poly, ',[[false,1]]],"kl"', True),
        (row, "[5,[-1,2,2,1,1,0]]", True),
        (poly, ',[[1,0],[3,1]]],"kl"', False),
        (poly, ',[[3,1],[3,1]]],"kl"', False),
        (row, "[5,[3,3,2,2,1,1,0]]", False),
        (row, f"{row},{row}", False),
        ("[3,[2,1,1,0]]", "[4,[2,1,1,0]]", False),  # ts, the orbit's smallest id is st
    ]:
        cache.write_text(good.replace(old, new))
        before = cache.read_text()
        status, out, err = run_cli_err(args)
        if mismatched:
            assert (status, out, err) == (0, plain, f"warning: ignoring mismatched cache {cache}\n"), new
            assert cache.read_text() != before and HeckeAlgebra(W).load_cache(cache), new
        else:
            assert (status, out) == (2, ""), new
            assert err.startswith("internal inconsistency: "), new
            assert cache.read_text() == before, new


def test_tampered_cache_exits_2_under_python_O(tmp_path, monkeypatch):
    # The KL guards are explicit checks, not asserts, so -O keeps them.
    group, y, x, h, argv = TAMPERED[2]
    _tampered_cache(_cache_dir(monkeypatch, tmp_path / "cache", group), group, y, x, h)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "coxkl", "--type", group, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("internal inconsistency: ")


def test_audit_golden_bytes():
    # SHA-256 of stdout and the exit status of --cmd audit on four groups in
    # every format, recorded from the per-pair audit before it shared one
    # verdict between reports with equal (h, d).
    golden = json.loads((DATA / "audit_golden.json").read_text())
    assert {(g["argv"][1], g["argv"][-1]) for g in golden} == {
        (code, fmt) for code in ("A3", "B3", "H3", "A4") for fmt in cli.FORMATS
    }
    for g in golden:
        status, out = run_cli(list(g["argv"]))
        raw = out.encode()
        assert (status, len(raw), hashlib.sha256(raw).hexdigest()) == (
            g["status"], g["bytes"], g["sha256"]
        ), g["argv"]


def test_cli_golden_grid():
    # Exit status, stdout byte count and SHA-256, and the full stderr of every
    # command in every format on B3 and on a B3 matrix file with the
    # generator names a, bb, c, plus usage errors; recorded from the CLI that
    # wrote each format by hand in each command.  The last four, the A4
    # regular table in each format and A5's I = {s1} table in text, were
    # recorded from the cell-by-cell DimTable renderers (tests/oracles.py).
    golden = json.loads((DATA / "cli_golden.json").read_text())
    for head in (["--type", "B3"], ["--matrix", "matrix_a_bb_c.json"]):
        covered = {
            (g["argv"][g["argv"].index("--cmd") + 1], g["argv"][-1])
            for g in golden
            if g["argv"][:2] == head and g["status"] == 0
        }
        assert covered == {(c, f) for c in cli.COMMANDS for f in cli.FORMATS}, head
    for g in golden:
        status, out, err = run_cli_err(_golden_argv(g["argv"]))
        raw = out.encode()
        assert (status, len(raw), hashlib.sha256(raw).hexdigest(), err) == (
            g["status"], g["bytes"], g["sha256"], g["stderr"]
        ), g["argv"]


def test_matrix_file_input(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"rank": 2, "matrix": [[1, 4], [4, 1]], "names": ["a", "b"]}))
    status, out = run_cli(["--matrix", str(path), "--cmd", "ih", "--x", "abab"])
    assert status == 0
    # length generating function of B2: lengths 0,1,1,2,2,3,3,4
    assert out == "1 + 2q + 2q^2 + 2q^3 + q^4\n"


def test_unprintable_matrix_names_are_usage_errors(tmp_path):
    # A matrix file naming a generator with a character that is not printable
    # exits 1 with one usage error line and nothing on stdout.
    for name in ("a\nb", "a\tb", "a\x00", "a\u2028b"):
        path = tmp_path / "names.json"
        path.write_text(json.dumps({"rank": 2, "matrix": [[1, 3], [3, 1]], "names": [name, "c"]}))
        status, out, err = run_cli_err(["--matrix", str(path), "--cmd", "andersen", "--format", "csv"])
        assert (status, out, err) == (1, "", f"usage error: bad generator name {name!r}\n"), name


def test_malformed_matrix_file_is_usage_error(tmp_path):
    # Matrix and names of the wrong shape, and a file that is not UTF-8, exit
    # 1 with a usage error, not a traceback.
    for data in (
        {"rank": 2, "matrix": [5, 6]},
        {"rank": 2, "matrix": 5},
        {"rank": 2, "matrix": [[1, "x"], 3]},
        {"rank": 2, "matrix": [[1, 3], [3, 1]], "names": 5},
        {"rank": 2, "matrix": [[1, 3], [3, 1]], "names": "ab"},
        {"rank": "2", "matrix": [[1, 3], [3, 1]]},
        {"rank": 2.0, "matrix": [[1, 3], [3, 1]]},
        {"rank": True, "matrix": [[1]]},
        b"\xff" + json.dumps({"rank": 1, "matrix": [[1]]}).encode(),
    ):
        path = tmp_path / "bad.json"
        path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
        proc = subprocess.run(
            [sys.executable, "-m", "coxkl", "--matrix", str(path), "--cmd", "ih", "--x", "e"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert (proc.returncode, proc.stdout) == (1, ""), data
        assert proc.stderr.startswith("usage error: "), data
        assert "Traceback" not in proc.stderr, data


def test_cache_warm_cold_identical(tmp_path, monkeypatch):
    cache = _cache_dir(monkeypatch, tmp_path / "cache", "A3")
    args = ["--type", "A3", "--cmd", "andersen", "--format", "json"]
    status1, cold = run_cli(args)
    assert status1 == 0 and cache.exists()
    first_bytes = cache.read_bytes()
    status2, warm = run_cli(args)
    assert status2 == 0
    assert warm == cold
    assert cache.read_bytes() == first_bytes


def test_cache_rewritten_only_when_changed(tmp_path, monkeypatch):
    # A command that computes new rows, or meets a mismatched cache, rewrites
    # the file; one that finds every row it needs leaves it untouched.
    cache = _cache_dir(monkeypatch, tmp_path / "cache", "A3")
    base = ["--type", "A3"]
    past = 10**18

    def stamp():
        os.utime(cache, ns=(past, past))
        return cache.read_bytes()

    assert run_cli([*base, "--cmd", "h", "--y", "e", "--x", "s1"])[0] == 0
    partial = stamp()
    assert run_cli([*base, "--cmd", "andersen"])[0] == 0
    assert cache.stat().st_mtime_ns != past and cache.read_bytes() != partial
    full = stamp()
    for argv in (["--cmd", "andersen"], ["--cmd", "h", "--y", "e", "--x", "s2s1s3s2"], ["--cmd", "audit"]):
        assert run_cli([*base, *argv])[0] == 0, argv
        assert (cache.read_bytes(), cache.stat().st_mtime_ns) == (full, past), argv
    cache.write_text("{}")
    stamp()
    status, out, err = run_cli_err([*base, "--cmd", "h", "--y", "e", "--x", "s1"])
    assert (status, out) == (0, "h(e, s1) = v\n")
    assert err == f"warning: ignoring mismatched cache {cache}\n"
    assert cache.stat().st_mtime_ns != past and json.loads(cache.read_text())["schema"] == CACHE_SCHEMA


def test_warm_ih_leaves_an_orbit_compact_cache_untouched(tmp_path, monkeypatch):
    # The A4 cache lists one row per orbit of the symmetry group, 45 of the
    # 120; a warm ih on an x whose row is not listed reads it through G,
    # computes nothing, leaves the file's bytes and mtime as they were, and
    # prints what a run without a cache prints.
    from coxkl import CoxeterSystem

    W = CoxeterSystem.from_type("A4")
    cache = _cache_dir(monkeypatch, tmp_path / "cache", "A4")
    base = ["--type", "A4"]
    assert run_cli([*base, "--cmd", "andersen"])[0] == 0
    listed = {xi for xi, _ in json.loads(cache.read_text())["kl"]}
    assert len(listed) == 45
    x = W.format_element(W._el(max(set(range(W.order)) - listed)))
    past = 10**18
    os.utime(cache, ns=(past, past))
    before = cache.read_bytes()
    status, warm = run_cli([*base, "--cmd", "ih", "--x", x])
    assert (cache.read_bytes(), cache.stat().st_mtime_ns) == (before, past)
    monkeypatch.delenv(cli.CACHE_DIR_ENV)
    assert (status, warm) == run_cli(["--type", "A4", "--cmd", "ih", "--x", x])


def test_cache_env_dir(tmp_path):
    status, _ = run_cli(
        ["--type", "B2", "--cmd", "ih", "--x", "stst"], env_cache=tmp_path
    )
    assert status == 0
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1


def test_cache_mismatch_is_warning(tmp_path, monkeypatch):
    # An unreadable cache, and a schema-1 or schema-2 file with the right
    # fingerprint, are ignored with a warning, never migrated, and rewritten
    # in the current schema.
    from coxkl import CoxeterSystem

    args = ["--type", "A2", "--cmd", "ih", "--x", "sts"]
    status, plain = run_cli(args)
    assert (status, plain) == (0, "1 + 2q + 2q^2 + q^3\n")
    fingerprint = CoxeterSystem.from_type("A2").fingerprint
    schema_1 = {"schema": 1, "coxeter_hash": fingerprint, "kl": {"e": {"e": [[0, 1]]}, "s": {"e": [[1, 1]], "s": [[0, 1]]}}}
    schema_2 = {"schema": 2, "coxeter_hash": fingerprint, "kl": [[0, [[0, [[0, 1]]]]], [1, [[0, [[1, 1]]], [1, [[0, 1]]]]]]}
    cache = _cache_dir(monkeypatch, tmp_path / "cache", "A2")
    for text in ("{}", json.dumps(schema_1), json.dumps(schema_2)):
        cache.write_text(text)
        status, out, err = run_cli_err(args)
        assert (status, out) == (0, plain), text
        assert err == f"warning: ignoring mismatched cache {cache}\n", text
        assert json.loads(cache.read_text())["schema"] == CACHE_SCHEMA == 3, text


def test_cache_path_not_a_file_is_usage_error(tmp_path, monkeypatch):
    # A cache file $COXKL_CACHE_DIR/<fingerprint>.json that is a directory, or
    # COXKL_CACHE_DIR naming a path under a regular file or a regular file,
    # exits 1 before any work or output, with one usage error line, no
    # traceback and no temp file: in a fresh interpreter and in this one.
    from coxkl import CoxeterSystem

    plain = tmp_path / "plain"
    plain.write_text("")
    (tmp_path / "cache" / f"{CoxeterSystem.from_type('A2').fingerprint}.json").mkdir(parents=True)
    argv = ["--type", "A2", "--cmd", "kl", "--y", "e", "--x", "s"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(cli.CACHE_DIR_ENV, None)
    monkeypatch.delenv(cli.CACHE_DIR_ENV, raising=False)
    for cache_dir, why in (
        (tmp_path / "cache", "is not a regular file"),
        (plain / "sub", "Not a directory"),
        (plain, "Not a directory"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "coxkl", *argv], capture_output=True, text=True,
            env={**env, cli.CACHE_DIR_ENV: str(cache_dir)},
        )
        with monkeypatch.context() as m:
            m.setenv(cli.CACHE_DIR_ENV, str(cache_dir))
            assert run_cli_err(argv) == (proc.returncode, proc.stdout, proc.stderr), cache_dir
        assert (proc.returncode, proc.stdout) == (1, ""), cache_dir
        assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1, cache_dir
        assert "Traceback" not in proc.stderr and proc.stderr.endswith(f"{why}\n"), cache_dir
        assert not [*tmp_path.parent.glob("*.tmp"), *tmp_path.rglob("*.tmp")], cache_dir
    assert plain.read_text() == ""


def test_cache_write_error_is_usage_error(tmp_path, monkeypatch):
    # An OSError from writing the cache is one usage error line, not a traceback.
    def full(algebra, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.HeckeAlgebra, "save_cache", full)
    cache = _cache_dir(monkeypatch, tmp_path / "cache", "A2")
    status, out, err = run_cli_err(["--type", "A2", "--cmd", "h", "--y", "e", "--x", "s"])
    assert (status, out) == (1, "h(e, s) = v\n")
    assert err == f"usage error: cannot write cache {cache}: [Errno 28] No space left on device\n"


def test_scenario_determinism_cold_vs_warm(tmp_path):
    scenarios = json.loads((DATA / "scenario.json").read_text())
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    outputs = []
    for run_idx in range(2):  # run 0 populates caches, run 1 reuses them
        chunk = []
        for args in scenarios:
            status, out = run_cli(list(args), env_cache=cache_dir)
            assert status == 0, args
            chunk.append(out)
        outputs.append(chunk)
    assert outputs[0] == outputs[1]


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(cli.CACHE_DIR_ENV, None)
    proc = subprocess.run(
        [sys.executable, "-m", "coxkl", "--type", "A2", "--cmd", "ih", "--x", "sts"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 + 2q + 2q^2 + q^3\n"
    # The bytes, stderr and status recorded in cli_golden.json, on a command
    # and on a usage error.
    golden = {tuple(g["argv"]): g for g in json.loads((DATA / "cli_golden.json").read_text())}
    for argv in (
        ("--type", "B3", "--cmd", "kl", "--y", "s1", "--x", "s1s2s1s3s2", "--format", "text"),
        ("--type", "A2", "--cmd", "ih", "--x", "zz"),
    ):
        g = golden[argv]
        proc = subprocess.run([sys.executable, "-m", "coxkl", *argv], capture_output=True, env=env)
        assert (proc.returncode, len(proc.stdout), hashlib.sha256(proc.stdout).hexdigest(), proc.stderr.decode()) == (
            g["status"], g["bytes"], g["sha256"], g["stderr"]
        ), argv


def test_failed_audit_exits_2(monkeypatch):
    # A verdict with nonneg=False for one pool index fails the audit: exit 2,
    # one line on stderr, a FAIL line for its pair, and the verdict line ends stdout.
    from coxkl import CoxeterSystem, HeckeAlgebra, LaurentPoly
    from coxkl.lefschetz import AuditResult, lefschetz_audit

    real = lefschetz_audit(HeckeAlgebra(CoxeterSystem.from_type("A1")))
    i = real.rows[1][0]  # the pool index of h(e, s) in the row of s
    verdicts = {**real.verdicts, i: (1, LaurentPoly.one(), True, True, False)}
    monkeypatch.setattr(cli, "lefschetz_audit", lambda algebra: AuditResult(real.rows, verdicts, real.ih_reports))
    status, out, err = run_cli_err(["--type", "A1", "--cmd", "audit"])
    assert (status, out, err) == (
        2,
        "ok local (e, e) poly=0\nFAIL local (e, s) poly=1\nok local (s, s) poly=0\n"
        "ok ih e poly=1\nok ih s poly=1 + q\naudit: FAIL\n",
        "internal inconsistency: lefschetz audit failed\n",
    )


def test_closed_pipe_ends_the_run_quietly():
    # A reader that takes one line and closes the pipe ends the run: exit 0
    # and nothing on stderr, though the output (613 kB) is far larger than
    # the pipe, with stdout buffered or not.
    env = {k: v for k, v in os.environ.items() if k not in (cli.CACHE_DIR_ENV, "PYTHONUNBUFFERED")}
    argv = [sys.executable, "-m", "coxkl", "--type", "D4", "--cmd", "audit"]
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env={**env, "PYTHONPATH": str(SRC), **unbuffered}) as proc:
            assert proc.stdout.readline() == b"ok local (e, e) poly=0\n"
            proc.stdout.close()
            assert (proc.wait(timeout=120), proc.stderr.read()) == (0, b""), unbuffered


def test_audit_streams_its_lines():
    # The D5 audit prints 747,298 lines; written as they are made, the run
    # peaks near its KL table (about 53 MB) rather than at the whole text.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(cli.CACHE_DIR_ENV, None)
    code = ("import resource, sys; from coxkl import cli; s = cli.main(['--type', 'D5', '--cmd', 'audit']); "
            "print(s, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
    status, kib = map(int, proc.stderr.split())
    assert status == 0 and kib * 1024 < 100e6
