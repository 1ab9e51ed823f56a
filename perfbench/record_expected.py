"""Record the output digests that the kl-blocks and audit workloads check.

Run from the root of a checkout whose src/ is trusted (the digests in
expected.json were recorded this way on the code the benchmark was
defined against):

    python3 perfbench/record_expected.py

It computes each output the same way the workloads do, for their default
groups and for A3, which the smoke test uses, and rewrites expected.json.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from coxkl import CoxeterSystem, HeckeAlgebra, lefschetz_audit  # noqa: E402
from workloads import Audit, KLBlocks, audit_text, digest, parabolic_key, series_digest  # noqa: E402


def main() -> None:
    expected: dict[str, dict[str, str]] = {}
    for name in KLBlocks.groups + ("A3",):
        W = CoxeterSystem.from_type(name)
        A = HeckeAlgebra(W)
        for I in KLBlocks.parabolics:
            table, series = KLBlocks.readout(W, I, A)
            key = parabolic_key(I)
            entry = expected.setdefault(name, {})
            entry[f"andersen:{key}"] = digest(table.to_csv())
            entry[f"equivariant:{key}"] = series_digest(series)
    for name in Audit.groups + ("A3",):
        result = lefschetz_audit(HeckeAlgebra(CoxeterSystem.from_type(name)))
        if not result.passed:
            sys.exit(f"{name}: the audit fails; not recording it")
        expected.setdefault(name, {})["audit"] = digest(audit_text(result))
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
