"""
Batch command-line front end.

One invocation runs one command against one group (and optionally one
parabolic subset).  Elements are addressed by concatenated generator names
("s2s1s3s2", "e" for the identity); output is deterministic byte-for-byte
for a fixed configuration, whatever the cache state.

Each command is one function in ``_COMMANDS``.  It computes its data once and passes lazy
json, csv and text rows to ``_render``, the one place where the formats differ, so only the
chosen format is ever formatted.  Once the data is complete (a malformed KL family leaves
stdout empty), ``run`` writes the lines as they are made; a closed pipe ends it quietly.

Exit status: 0 on success, 1 on a usage error, 2 on an internal
inconsistency (a malformed KL family or a failed audit check).
"""
from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from itertools import chain, islice, starmap

from .blocks import andersen_table, equivariant_hom_series, make_block
from .coxeter import CoxeterError, CoxeterSystem
from .hecke import HeckeAlgebra, MalformedKL, _dumps
from .lefschetz import _json_parts, ih_poincare, lefschetz_audit, local_lefschetz_poly

__all__ = ["UsageError", "build_parser", "run", "main"]

FORMATS = ("text", "csv", "json")
CACHE_DIR_ENV = "COXKL_CACHE_DIR"


class UsageError(ValueError):
    """Bad flags or unparsable arguments; exits with status 1."""


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coxkl",
        description="Exact Kazhdan-Lusztig data for finite Coxeter groups.",
        exit_on_error=False,
    )
    g = p.add_mutually_exclusive_group()
    g.add_argument("--type", dest="group_type", metavar="CODE", help="built-in type code, e.g. A3, B2, H3")
    g.add_argument("--matrix", dest="matrix_file", metavar="FILE", help="JSON Coxeter matrix file")
    p.add_argument("--cmd", required=True, choices=COMMANDS, help="command to run")
    p.add_argument("--parabolic", default="", metavar="NAMES", help="comma-separated generator names for W_I")
    p.add_argument("--format", dest="fmt", default="text", choices=FORMATS)
    p.add_argument("--cache", metavar="FILE", help=f"KL cache file (default: ${CACHE_DIR_ENV}/<hash>.json when set)")
    p.add_argument("--rank", type=int, help="polynomial-ring rank override for --cmd equivariant")
    p.add_argument("--n-max", dest="n_max", type=int, default=12, help="top degree for --cmd equivariant")
    p.add_argument("--y", help="element word (row side)")
    p.add_argument("--x", help="element word (column side)")
    p.add_argument("--word", help="generator word for --cmd bs, e.g. s1s2s1")
    return p


def _build_system(args: argparse.Namespace) -> CoxeterSystem:
    if args.group_type:
        return CoxeterSystem.from_type(args.group_type)
    if args.matrix_file:
        try:
            return CoxeterSystem.from_json_file(args.matrix_file)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read matrix file {args.matrix_file}: {exc}")
    raise UsageError("one of --type or --matrix is required")


def _cache_path(args: argparse.Namespace, system: CoxeterSystem) -> tuple[str | None, bool]:
    # The KL cache file of this run, if any, and whether it exists.  A path that
    # exists but is no regular file, or lies under a non-directory, is a usage error.
    path = args.cache
    if not path and os.environ.get(CACHE_DIR_ENV):
        path = os.path.join(os.environ[CACHE_DIR_ENV], f"{system.fingerprint}.json")
    if not path:
        return None, False
    try:
        if stat.S_ISREG(os.stat(path).st_mode):
            return path, True
    except FileNotFoundError:
        return path, False
    except OSError as exc:
        raise UsageError(f"cannot use cache {path}: {exc.strerror}")
    raise UsageError(f"cache {path} is not a regular file")


def _arg(args: argparse.Namespace, attr: str, parse):
    """parse(--attr), which the command requires; a bad word is a usage error."""
    word = getattr(args, attr)
    if word is None:
        raise UsageError(f"--{attr} is required for --cmd {args.cmd}")
    try:
        return parse(word)
    except CoxeterError as exc:
        raise UsageError(str(exc))


def _render(fmt: str, json_rows, csv_head: str, csv_rows, text_lines):
    """The output lines in fmt: json_rows as they are, csv_rows joined by
    commas under csv_head, or text_lines.  Only the chosen one is consumed."""
    if fmt == "json":
        return json_rows
    if fmt == "csv":
        return chain((csv_head,), (",".join(map(str, row)) for row in csv_rows))
    return text_lines


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit status."""
    try:
        system = _build_system(args)
        parabolic = tuple(system.generator_index(n) for n in args.parabolic.split(",") if n)
    except CoxeterError as exc:
        raise UsageError(str(exc))

    cache_path, cached = _cache_path(args, system)
    algebra = HeckeAlgebra(system)
    loaded = False
    try:
        if cached:
            loaded = algebra.load_cache(cache_path)
            if not loaded:
                print(f"warning: ignoring mismatched cache {cache_path}", file=sys.stderr)
        status, lines = _COMMANDS[args.cmd](args, system, algebra, parabolic)
    except MalformedKL as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    try:
        lines = (f"{line}\n" for line in lines)
        while text := "".join(islice(lines, 4096)):  # a few hundred kB per write, also on unbuffered stdout
            sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early: stdout goes to devnull, so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())

    # An accepted cache to which this run added no row is left as it is.
    if cache_path and (not loaded or algebra.computed_count):
        try:
            os.makedirs(os.path.dirname(cache_path) or ".", exist_ok=True)
            algebra.save_cache(cache_path)
        except OSError as exc:
            raise UsageError(f"cannot write cache {cache_path}: {exc}")
    return status


def _kl(args, system, algebra, parabolic):
    y, x = _arg(args, "y", system.parse_element), _arg(args, "x", system.parse_element)
    ylab, xlab = system.format_element(y), system.format_element(x)
    polys = {"h": algebra.h_poly(y, x)}  # h_{y,x}(v), and P_{y,x}(q) for kl
    if args.cmd == "kl":
        polys["P"] = algebra.kl_polynomial(y, x)
    return 0, _render(
        args.fmt,
        map(_dumps, [{"y": ylab, "x": xlab, **{k: p.pairs() for k, p in polys.items()}}]),
        "y,x,kind,exp,coeff",
        ((ylab, xlab, k, e, c) for k, p in polys.items() for e, c in p.pairs()),
        (f"{k}({ylab}, {xlab}) = {p.format('v' if k == 'h' else 'q')}" for k, p in polys.items()),
    )


def _andersen(args, system, algebra, parabolic):
    table = andersen_table(make_block(system, parabolic), algebra)
    return 0, [getattr(table, f"to_{args.fmt}")().removesuffix("\n")]


def _bs(args, system, algebra, parabolic):
    # The literal letters typed matter here, not the canonicalized element.
    dec = algebra.bott_samelson(_arg(args, "word", system.parse_word))
    items = [(system.format_element(el), p) for el, p in dec.items()]
    return 0, _render(
        args.fmt,
        map(_dumps, [{lab: p.pairs() for lab, p in items}]),
        "element,exp,coeff",
        ((lab, e, c) for lab, p in items for e, c in p.pairs()),
        (f"{lab}: {p.format('v')}" for lab, p in items),
    )


def _equivariant(args, system, algebra, parabolic):
    if args.n_max < 0:
        raise UsageError("--n-max must be >= 0")
    if args.rank is not None and args.rank < 1:
        raise UsageError("--rank must be >= 1")
    block = make_block(system, parabolic)
    ybar = block.coset_of(_arg(args, "y", system.parse_element))
    xbar = block.coset_of(_arg(args, "x", system.parse_element))
    dims = equivariant_hom_series(block, algebra, ybar, xbar, args.n_max, args.rank)
    return 0, _render(
        args.fmt,
        map(_dumps, [{"ybar": block.label(ybar), "xbar": block.label(xbar), "dims": dims}]),
        "n,dim",
        enumerate(dims),
        (" ".join(map(str, d)) for d in [dims]),
    )


def _lefschetz(args, system, algebra, parabolic):
    y, x = _arg(args, "y", system.parse_element), _arg(args, "x", system.parse_element)
    reps = [local_lefschetz_poly(algebra, y, x)]
    return 0, _render(
        args.fmt,
        (r.to_json_line() for r in reps),
        "y,x,d,palindromic,unimodal,nonneg,poly",
        ((r.y_label, r.x_label, r.d, r.palindromic, r.unimodal, r.nonneg, r.poly.format("q")) for r in reps),
        (
            f"pair=({r.y_label}, {r.x_label}) d={r.d} poly={r.poly.format('q')} "
            f"palindromic={r.palindromic} unimodal={r.unimodal} nonneg={r.nonneg}"
            for r in reps
        ),
    )


def _ih(args, system, algebra, parabolic):
    x = _arg(args, "x", system.parse_element)
    xlab, polys = system.format_element(x), [ih_poincare(algebra, x)]
    return 0, _render(
        args.fmt,
        (_dumps({"x": xlab, "ih": p.pairs()}) for p in polys),
        "x,exp,coeff",
        ((xlab, e, c) for p in polys for e, c in p.pairs()),
        (p.format("q") for p in polys),
    )


def _audit(args, system, algebra, parabolic):
    result = lefschetz_audit(algebra)
    ihs, status = result.ih_reports, 0 if result.passed else 2
    if status:
        print("internal inconsistency: lefschetz audit failed", file=sys.stderr)

    def pairs(split, quote=str):
        # (head, y, x, tail) per pair, y by id: the labels, quoted, and the line
        # of the pair's verdict split around them, made once per pool index.
        labels, parts = [quote(r.x_label) for r in ihs], {i: split(*v) for i, v in result.verdicts.items()}
        for xi, row in enumerate(result.rows):
            yield from ((head, labels[yi], labels[xi], tail) for yi in sorted(row) for head, tail in [parts[row[yi]]])

    def text(d, poly, *flags):
        return f"{'ok' if all(flags) else 'FAIL'} local (", f") poly={poly.format('q')}"

    return status, _render(
        args.fmt,
        chain(starmap("{}{},{}{}".format, pairs(_json_parts, _dumps)), (r.to_json_line() for r in ihs)),
        "kind,y,x,d,palindromic,unimodal,nonneg",
        chain(
            pairs(lambda d, poly, *flags: ("local", ",".join(map(str, (d, *flags))))),
            (("ih", "", r.x_label, "", r.palindromic, "", "") for r in ihs),
        ),
        chain(
            starmap("{}{}, {}{}".format, pairs(text)),
            (f"{'ok' if r.palindromic else 'FAIL'} ih {r.x_label} poly={r.poly.format('q')}" for r in ihs),
            [f"audit: {'FAIL' if status else 'PASS'}"],
        ),
    )


_COMMANDS = {
    "kl": _kl, "h": _kl, "andersen": _andersen, "bs": _bs,
    "equivariant": _equivariant, "lefschetz": _lefschetz, "ih": _ih, "audit": _audit,
}
COMMANDS = tuple(_COMMANDS)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(build_parser().parse_args(argv))
    except (argparse.ArgumentError, UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse still exits directly for some error paths (and for --help).
        return 0 if exc.code in (None, 0) else 1


if __name__ == "__main__":
    sys.exit(main())
