"""The benchmark's workloads: one closed loop, one thread, one call at a time.

Every workload calls the public functions of coxkl through their module
attributes (``blocks.andersen_table``, ``lefschetz.lefschetz_audit``,
``cli.main``), which is where the tracer in ``spans.py`` patches them.
Constructing a workload is its set-up: group construction and input
generation.  ``run_pass`` times each call on its own and checks each output
outside the timed calls.  Each timed call starts from a fully collected
heap, so the cyclic collector runs at the same points inside it in every
pass; otherwise a full collection of the heap lands in one call or the next
depending on what ran before.  Right before each call the fixed
``reference_work`` is timed too, so that a run can tell the program's cost
from the speed of a shared host at that moment.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

import coxkl.blocks as blocks
import coxkl.cli as cli
import coxkl.lefschetz as lefschetz
from coxkl import CoxeterSystem, HeckeAlgebra

N_MAX = 12  # top degree of every equivariant Hom series


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def series_digest(series) -> str:
    return digest(json.dumps(series))


def audit_text(result) -> str:
    lines = [r.to_json_line() for r in result.reports]
    lines += [r.to_json_line() for r in result.ih_reports]
    return "\n".join(lines)


def parabolic_key(I) -> str:
    return ",".join(map(str, I))


def reference_work() -> int:
    """Fixed pure-Python work: object churn, then sparse polynomial products.

    It runs no coxkl code, so a change to the program leaves its time alone,
    while a busy neighbour on the host slows it about as much as the
    program's own interpreter-bound, allocation-heavy calls.
    """
    d = {}
    for i in range(15_000):
        d[(i, i & 63)] = [i, str(i)]
    a = {i: i * 7 % 5 - 2 for i in range(30)}
    b = {i: i * 3 % 7 - 3 for i in range(25)}
    for _ in range(9):
        c = {}
        for i, x in a.items():
            for j, y in b.items():
                c[i + j] = c.get(i + j, 0) + x * y
        d[len(d)] = c
    return len(d)


def time_reference() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


class Sample(NamedTuple):
    seconds: float  # the timed call
    reference: float  # reference_work, timed right before it


@dataclass
class Pass:
    """Latencies and outcomes of one pass over a workload's calls."""

    cold: dict[str, list[Sample]] = field(default_factory=dict)  # table-filling calls, by site
    warm: list[Sample] = field(default_factory=list)  # each later call
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)  # held for a deferred check

    @property
    def samples(self) -> list[Sample]:
        """Every timed call, repeats included."""
        return [s for v in self.cold.values() for s in v] + self.warm

    @property
    def busy(self) -> float:
        """Time inside every timed call."""
        return sum(s.seconds for s in self.samples)

    def call(self, fn, *args, cold: str | None = None):
        """Time one call; ``cold`` names the table-filling site it samples.

        An exception makes it a failed operation, returning None.
        """
        self.attempted += 1
        reference = time_reference()
        gc.collect()
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failing call is counted, not fatal
            out = None
            self.fail(f"{fn.__qualname__} raised {exc!r}")
        sample = Sample(perf_counter() - t0, reference)
        if cold:
            self.cold.setdefault(cold, []).append(sample)
        else:
            self.warm.append(sample)
        return out

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"failed: {what}", file=sys.stderr)


class Workload:
    groups: tuple[str, ...] = ()

    def __init__(self, groups, seed: int, expected: dict, scratch: str):
        self.group_names = tuple(groups)
        self.systems = [CoxeterSystem.from_type(g) for g in self.group_names]
        self.expected = expected
        self.scratch = scratch

    def describe(self) -> str:
        return " ".join(f"{g}={W.order}" for g, W in zip(self.group_names, self.systems))

    def prepare(self) -> None:
        """Work before the timed passes that belongs to no pass."""

    def verify(self, p: Pass) -> None:
        """Checks that must run outside the traced section."""

    def _want(self, group: str, key: str) -> str:
        try:
            return self.expected[group][key]
        except KeyError:
            raise SystemExit(f"no recorded digest for {group} {key}; see record_expected.py")


class KLBlocks(Workload):
    """Cold KL table, then the Andersen tables and equivariant series read off it."""

    groups = ("A5", "B4")
    parabolics = ((0,), (0, 1))

    # A warm operation reads one block off the table: its Andersen table and
    # its equivariant series from the first coset to every coset.  Timed one
    # by one, the 20-microsecond series calls spread by a third from run to
    # run.
    @staticmethod
    def readout(W, I, A):
        block = blocks.make_block(W, I)
        table = blocks.andersen_table(block, A)
        first = block.cosets[0]
        series = [blocks.equivariant_hom_series(block, A, first, c, N_MAX) for c in block.cosets]
        return table, series

    def run_pass(self, corrupt: bool = False) -> Pass:
        p = Pass()
        for name, W in zip(self.group_names, self.systems):
            A = HeckeAlgebra(W)
            p.call(A.kl_table, cold=name)
            for I in self.parabolics:
                key = parabolic_key(I)
                got = p.call(self.readout, W, I, A)
                if got is not None:
                    csv = got[0].to_csv() + ("!" if corrupt else "")
                    corrupt = False
                    p.check(
                        digest(csv) == self._want(name, f"andersen:{key}")
                        and series_digest(got[1]) == self._want(name, f"equivariant:{key}"),
                        f"{name} I={key}: Andersen table or equivariant series",
                    )
                del got
            del A
        return p


class Audit(Workload):
    """Cold KL table, then the hard-Lefschetz audit over every Bruhat pair."""

    groups = ("D4", "H3")

    def prepare(self) -> None:
        """Fill and drop each group's KL table once before the timed passes.

        Measured here, the first table a process builds took about 30% longer
        than later ones, which moved cold_cmd_s with the number of passes.
        On kl-blocks no such effect showed, and a fill costs a third of a pass.
        """
        for W in self.systems:
            HeckeAlgebra(W).kl_table()

    def run_pass(self, corrupt: bool = False) -> Pass:
        p = Pass()
        for name, W in zip(self.group_names, self.systems):
            A = HeckeAlgebra(W)
            p.call(A.kl_table, cold=name)
            result = p.call(lefschetz.lefschetz_audit, A)
            if result is not None:
                got = digest(audit_text(result) + ("!" if corrupt else ""))
                corrupt = False
                p.check(result.passed and got == self._want(name, "audit"), f"{name}: audit")
            del A, result
        return p


class CliSession(Workload):
    """One table-filling CLI command, then warm queries against its cache.

    Every command runs in-process through ``cli.main`` with
    ``COXKL_CACHE_DIR`` pointing at a fresh directory, so each one loads the
    cache and writes it back.  The session opens with the Andersen table of
    the regular block (no parabolic), which needs every KL polynomial: the
    table of ``--parabolic s1`` leaves part of the cache empty, and the warm
    queries then grew it along a path that made one seed's session up to 15%
    dearer than another's.
    """

    groups = ("A4",)
    parabolic = "s1"
    n_queries = 100  # enough warm samples for a p90 with ten beyond it
    # One 0.1 s cold command per pass was the noisiest sample of all, so a
    # pass opens the session this many times, each in a fresh cache
    # directory, and continues from the last.
    cold_repeats = 5
    kinds = ("kl", "h", "lefschetz", "ih", "equivariant")
    formats = ("text", "csv", "json")

    def __init__(self, groups, seed, expected, scratch):
        super().__init__(groups, seed, expected, scratch)
        if len(self.systems) != 1:
            raise SystemExit("cli-session runs on exactly one group")
        (group,), (W,) = self.group_names, self.systems
        rng = random.Random(seed)
        head = ["--type", group, "--parabolic", self.parabolic]
        # Every seed gets the same mix of commands and formats, in its own
        # order and on its own elements, so seeds differ in data, not in work.
        mix = [(k, f) for k in self.kinds for f in self.formats]
        mix = (mix * self.n_queries)[: self.n_queries]
        rng.shuffle(mix)
        self.argvs = [["--type", group, "--cmd", "andersen"]]
        for kind, fmt in mix:
            x = rng.choice(W.all_elements()[1:])
            # A subword of a reduced word of x spells some y <= x.
            y = W.element([s for s in x.word if rng.random() < 0.5])
            argv = head + ["--cmd", kind, "--format", fmt, "--x", W.format_element(x)]
            if kind != "ih":
                argv += ["--y", W.format_element(y)]
            self.argvs.append(argv)
        self._reference: list[str] = []

    @staticmethod
    def run_cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        return status, out.getvalue(), err.getvalue()

    def run_pass(self, corrupt: bool = False) -> Pass:
        p = Pass()
        dirs = []
        try:
            for _ in range(self.cold_repeats):
                dirs.append(tempfile.mkdtemp(prefix="cli-cache-", dir=self.scratch))
                os.environ[cli.CACHE_DIR_ENV] = dirs[-1]
                p.outputs.append((0, p.call(self.run_cli, self.argvs[0], cold="open")))
            for i in range(1, len(self.argvs)):
                p.outputs.append((i, p.call(self.run_cli, self.argvs[i])))
        finally:
            os.environ.pop(cli.CACHE_DIR_ENV, None)
            for d in dirs:
                shutil.rmtree(d)
        first_warm = self.cold_repeats
        if corrupt and p.outputs[first_warm][1] is not None:
            i, (status, out, err) = p.outputs[first_warm]
            p.outputs[first_warm] = (i, (status, out + "!", err))
        return p

    def prepare(self) -> None:
        """Run every argv once without a cache; the warm outputs must match these.

        Running it before the passes also means the first pass's cold command
        finds the interpreter as warm as every later pass does.
        """
        env = os.environ.pop(cli.CACHE_DIR_ENV, None)
        try:
            self._reference = [self.run_cli(argv)[1] for argv in self.argvs]
        finally:
            if env is not None:
                os.environ[cli.CACHE_DIR_ENV] = env

    def verify(self, p: Pass) -> None:
        """Warm output must equal the output of the same argv run without a cache."""
        for i, got in p.outputs:
            if got is not None:
                status, out, err = got
                p.check(
                    status == 0 and not err and out == self._reference[i],
                    f"{' '.join(self.argvs[i])}: status {status}, {err.strip()!r}",
                )
        p.outputs.clear()


WORKLOADS = {"kl-blocks": KLBlocks, "audit": Audit, "cli-session": CliSession}
