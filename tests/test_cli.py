import io
import json
import os
import subprocess
import sys
from pathlib import Path

import coxkl.cli as cli
from coxkl.laurent import InexactDivision

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


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
    # missing group
    status, _ = run_cli(["--cmd", "ih", "--x", "e"])
    assert status == 1
    # unknown command
    status, _ = run_cli(["--type", "A2", "--cmd", "bogus"])
    assert status == 1
    # missing element argument
    status, _ = run_cli(["--type", "A2", "--cmd", "ih"])
    assert status == 1
    # unparsable element
    status, _ = run_cli(["--type", "A2", "--cmd", "ih", "--x", "zz"])
    assert status == 1
    # parabolic name outside the group
    status, _ = run_cli(["--type", "A2", "--parabolic", "s9", "--cmd", "andersen"])
    assert status == 1
    # bad type code
    status, _ = run_cli(["--type", "Q7", "--cmd", "ih", "--x", "e"])
    assert status == 1
    # bad n-max
    status, _ = run_cli(["--type", "A1", "--cmd", "equivariant", "--y", "e", "--x", "s", "--n-max", "-3"])
    assert status == 1
    # missing matrix file
    status, _ = run_cli(["--matrix", "/nonexistent.json", "--cmd", "ih", "--x", "e"])
    assert status == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_internal_inconsistency_exit_code(monkeypatch):
    def boom(algebra, x):
        raise InexactDivision("forced")

    monkeypatch.setattr(cli, "ih_poincare", boom)
    status, _ = run_cli(["--type", "A2", "--cmd", "ih", "--x", "sts"])
    assert status == 2


def test_tampered_cache_exits_2(tmp_path):
    from coxkl import CoxeterSystem, HeckeAlgebra

    W = CoxeterSystem.from_type("A2")
    cases = [
        ("t", {2: 1}, ["--cmd", "h", "--y", "e", "--x", "st"]),  # wrong parity
        ("st", {5: 1}, ["--cmd", "audit"]),  # impossible degree
    ]
    for x, h, argv in cases:
        a = HeckeAlgebra(W)
        xi = W._id(W.parse_element(x))
        a._h[xi] = {W._id(W.identity): h, xi: {0: 1}}
        path = tmp_path / f"kl-{x}.json"
        a.save_cache(path)
        status, out = run_cli(["--type", "A2", *argv, "--cache", str(path)])
        assert status == 2, argv
        assert out == "", argv


def test_audit_golden_bytes():
    # SHA-256 of stdout and the exit status of --cmd audit on four groups in
    # every format, recorded from the per-pair audit before it shared one
    # verdict between reports with equal (h, d).
    import hashlib

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


def test_matrix_file_input(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"rank": 2, "matrix": [[1, 4], [4, 1]], "names": ["a", "b"]}))
    status, out = run_cli(["--matrix", str(path), "--cmd", "ih", "--x", "abab"])
    assert status == 0
    # length generating function of B2: lengths 0,1,1,2,2,3,3,4
    assert out == "1 + 2q + 2q^2 + 2q^3 + q^4\n"


def test_cache_warm_cold_identical(tmp_path):
    cache = tmp_path / "kl-a3.json"
    args = ["--type", "A3", "--cmd", "andersen", "--format", "json", "--cache", str(cache)]
    status1, cold = run_cli(args)
    assert status1 == 0 and cache.exists()
    first_bytes = cache.read_bytes()
    status2, warm = run_cli(args)
    assert status2 == 0
    assert warm == cold
    assert cache.read_bytes() == first_bytes


def test_cache_env_dir(tmp_path):
    status, _ = run_cli(
        ["--type", "B2", "--cmd", "ih", "--x", "stst"], env_cache=tmp_path
    )
    assert status == 0
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1


def test_cache_mismatch_is_warning(tmp_path, capsys):
    cache = tmp_path / "kl.json"
    cache.write_text("{}")
    status, out = run_cli(["--type", "A2", "--cmd", "ih", "--x", "sts", "--cache", str(cache)])
    assert status == 0
    assert out == "1 + 2q + 2q^2 + q^3\n"


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
    proc = subprocess.run(
        [sys.executable, "-m", "coxkl", "--type", "A2", "--cmd", "ih", "--x", "sts"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 + 2q + 2q^2 + q^3\n"
