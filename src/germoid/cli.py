"""Command line front end: fixture generation, analysis, groupoid
construction, verification suites, and DOT export.

Reports go to stdout as JSON (one object per line for ``verify``); the
human summary goes to stderr.  Exit codes: 0 all checks pass, 1 at least
one failure, 2 input/parse errors, including an input over the size limit
or too large for memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import errors
from .fixtures import generate_fixture
from .groupoids import groupoid_from_json
from .semigroups import semigroup_from_json, size_limit
from .verify import analyze, groupoid_variant, run_suite


def _load(path: str):
    return _read(path, semigroup_from_json, "semigroup")


def _read(path: str, parse, kind: str):
    """``parse`` of the file's bytes, of which it holds the only reference,
    so it can free them.  A parser decodes them only where it needs text,
    as ``Path.read_text()`` does: a file that does not decode cannot be
    read, as before."""
    try:
        return parse(Path(path).read_bytes(), name=Path(path).stem)
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit2(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise SystemExit2(f"cannot parse {path}: {exc}")
    except errors.ValidationError as exc:
        raise SystemExit2(f"invalid {kind} in {path}: {exc}")


class SystemExit2(Exception):
    """Signals exit code 2 (IO / parse problems)."""


def _emit(to_json, out: str | None):
    """Print the text ``to_json()`` returns, or let ``to_json(out)`` write
    it to the file ``out`` block by block, as the writer makes them."""
    if out:
        to_json(out)
    else:
        print(to_json())


def cmd_gen(args) -> int:
    params = {}
    if args.kind in ("direct-product", "adjoin-zero"):
        files = ({"left": args.left, "right": args.right}
                 if args.kind == "direct-product" else {"semigroup": args.infile})
        params = {k: _load(f) for k, f in files.items() if f is not None}
    else:
        if args.n is not None:
            params["n"] = args.n
        if args.group_n is not None:
            params["group_n"] = args.group_n
        if args.preset is not None:
            params["preset" if args.kind == "semidirect" else "name"] = args.preset
    S = generate_fixture(args.kind, **params)
    _emit(S.to_json, args.out)
    print(f"{S.name}: {len(S)} elements", file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    S = _load(args.file)
    report = analyze(S)
    print(json.dumps(report, sort_keys=True))
    f = report["filters"]
    print(f"{S.name}: |S|={report['elements']} |E|={report['idempotents']} "
          f"zero={report['zero']} E-unitary={report['e_unitary']} "
          f"0-E-unitary={report['zero_e_unitary']} |G|={report['group_order']} "
          f"filters={f['plain']}/{f['contracted']}/{f['tight']}",
          file=sys.stderr)
    return 0


def cmd_groupoid(args) -> int:
    S = _load(args.file)
    g = groupoid_variant(S, args.variant)
    _emit(g.to_json, args.out)
    if args.dot:
        Path(args.dot).write_text(g.to_dot() + "\n")
    iso = ",".join(map(str, g.isotropy_orders()))
    print(f"{g.name}: {g.n_units} units, {g.n_arrows} arrows, "
          f"isotropy orders [{iso}]", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    fixtures = [_load(f) for f in args.files]
    reports = run_suite(args.suite, fixtures)
    failed = 0
    for rep in reports:
        print(rep.to_json())
        if not rep.passed:
            failed += 1
    ran = sum(1 for r in reports if not r.skipped)
    skipped = len(reports) - ran
    print(f"suite {args.suite}: {ran - failed}/{ran} passed, "
          f"{skipped} skipped, {failed} failed", file=sys.stderr)
    return 1 if failed else 0


def cmd_export_dot(args) -> int:
    g = _read(args.file, groupoid_from_json, "groupoid")
    if args.out:
        Path(args.out).write_text(g.to_dot() + "\n")
    else:
        print(g.to_dot())
    return 0


# Looked up on each call, not stored in the parser, which is built once.
COMMANDS = {"gen": cmd_gen, "analyze": cmd_analyze, "groupoid": cmd_groupoid,
            "verify": cmd_verify, "export-dot": cmd_export_dot}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="germoid")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a fixture semigroup as JSON")
    g.add_argument("kind", choices=[
        "chain", "group", "brandt", "symmetric-inverse", "semidirect",
        "direct-product", "adjoin-zero", "preset"])
    g.add_argument("--n", type=int)
    g.add_argument("--group-n", type=int, dest="group_n")
    g.add_argument("--preset")
    g.add_argument("--left")
    g.add_argument("--right")
    g.add_argument("--in", dest="infile")
    g.add_argument("--out")

    a = sub.add_parser("analyze", help="summary facts about a semigroup file")
    a.add_argument("file")

    go = sub.add_parser("groupoid", help="build a groupoid of a semigroup")
    go.add_argument("file")
    go.add_argument("--variant", required=True,
                    choices=["universal", "contracted", "tight", "partial"])
    go.add_argument("--out")
    go.add_argument("--dot")

    v = sub.add_parser("verify", help="run a verification suite over fixtures")
    v.add_argument("--suite", required=True,
                   choices=["main1", "main1reduced", "reduction", "equiv",
                            "envelope", "ks", "all"])
    v.add_argument("files", nargs="+")

    d = sub.add_parser("export-dot", help="groupoid JSON to DOT")
    d.add_argument("file")
    d.add_argument("--out")

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once: parsing leaves a parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        size_limit()                # a malformed setting is an input error
        return COMMANDS[args.command](args)
    except (SystemExit2, errors.MalformedInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.SizeLimitExceeded as exc:
        print(f"error: SizeLimitExceeded: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except errors.GermoidError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
