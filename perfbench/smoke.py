"""Smoke test of the benchmark itself: every workload on A3, in a few seconds.

    python3 perfbench/smoke.py

For each workload it checks that an untraced and a traced run print every
metric BENCHMARK.json names, that the run passes its output checks, and
that altering one captured output (``--corrupt``) makes ``failed_frac``
positive.  It also checks that the runs leave src/ unchanged and that the
benchmark refuses to run in a directory holding only BENCHMARK.json and
perfbench/.  Exits 1 on the first failed check.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = [sys.executable, str(BENCH / "run.py"), "--groups", "A3", "--seed", "3", "--seconds", "0.5"]


def tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(*extra: str) -> dict:
    done = subprocess.run(RUN + list(extra), cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode:
        sys.exit(f"FAIL {extra}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src_before = tree_digest(ROOT / "src")
    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run("--workload", w, "--trace", str(trace))
            names = {m["name"] for m in spec[key]}
            expect(res["metrics"].keys() == names, f"{w} trace {trace}: prints every {key} metric")
            expect(res["correct"] and res["failed"] == 0 < res["attempted"], f"{w} trace {trace}: outputs pass their checks")
            if trace == 0:
                expect(all(m["value"] > 0 for m in res["metrics"].values()), f"{w}: no end-to-end metric is 0")
            else:
                gap = res["metrics"]["trace.gap_frac"]["value"]
                expect(0 <= gap < 0.1, f"{w}: top-level spans cover the traced section (gap {gap:.4f})")
        res = run("--workload", w, "--trace", "0", "--corrupt")
        expect(res["failed"] > 0 and not res["correct"], f"{w}: a corrupted output counts as failed ({res['failed']} of {res['attempted']})")
    expect(tree_digest(ROOT / "src") == src_before, "src/ is unchanged")

    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            spec["command"] + ["--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        expect(done.returncode != 0 and "correct" not in done.stdout, "refuses to run without src/")


if __name__ == "__main__":
    main()
