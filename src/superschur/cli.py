"""Command-line front end: dimension tables, verification suites, and
GL-point arithmetic on JSON supermatrices.

Each command loads only the modules it runs.  This module imports what the
parser and the GL-point commands ``berezinian`` and ``factor`` need:
errors, grassmann and supermatrix.  ``verify`` imports the suites, and
``tableaux`` the tableaux module, when the command runs.

Exit codes: 0 success, 1 mathematical failure (with a witness on stdout or a
message on stderr), 2 usage or parse error, 3 size cap exceeded.  JSON output
is deterministic for fixed arguments and seed: keys are sorted and sampled
suites derive everything from the explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import (
    DEFAULT_CAP,
    SUITE_NAMES,
    CapExceeded,
    DimensionError,
    FormatError,
    NotInvertible,
    ParityError,
    check_cap,
)
from .grassmann import MAX_GENERATORS, GrassmannElement, check_generators
from .supermatrix import SuperMatrix, berezinian, ldu_factor, supertrace

PROG = "superschur"


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def resolve_cap(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("SUPERSCHUR_CAP")
    if env is None:
        return DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        raise FormatError(f"SUPERSCHUR_CAP must be an integer, got {env!r}")
    if cap < 1:
        raise FormatError(f"SUPERSCHUR_CAP must be at least 1, got {env!r}")
    return cap


def _read_matrix(path: str) -> SuperMatrix:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past the digit limit
        raise FormatError(f"{path} is not valid JSON: {exc}")
    except RecursionError:  # arrays or objects nested past the interpreter's depth
        raise FormatError(f"{path} is not valid JSON: nested too deeply")
    return SuperMatrix.from_json(data)


def _grassmann_json(value) -> dict:
    """Encode a Berezinian/supertrace value; rationals embed at n = 0."""
    if isinstance(value, GrassmannElement):
        return value.to_json()
    return GrassmannElement.scalar(0, value).to_json()


def _render_shape(shape: list[int]) -> str:
    return json.dumps(shape, separators=(",", ":"))


def cmd_tableaux(args) -> int:
    from .tableaux import dimension_table, enumerate_ssyt, render_filling, symbol_name

    cap = resolve_cap(args.cap)
    total = check_cap(args.m, args.n, args.r, cap)
    table = dimension_table(args.m, args.n, args.r)
    weighted = sum(row["syt"] * row["ssyt"] for row in table)

    if args.format == "json":
        if args.list:
            for row in table:
                fillings = enumerate_ssyt(tuple(row["shape"]), args.m, args.n)
                row["fillings"] = [
                    [[symbol_name(s, args.m) for s in line] for line in filling]
                    for filling in fillings
                ]
        print(_dump(table))
    else:
        header = ["shape", "syt", "ssyt", "admissible"]
        cells = [
            [
                _render_shape(row["shape"]),
                str(row["syt"]),
                str(row["ssyt"]),
                "yes" if row["admissible"] else "no",
            ]
            for row in table
        ]
        widths = [
            max(len(header[c]), max((len(line[c]) for line in cells), default=0))
            for c in range(4)
        ]
        fmt = lambda line: "  ".join(
            line[c].ljust(widths[c]) if c in (0, 3) else line[c].rjust(widths[c])
            for c in range(4)
        ).rstrip()
        print(fmt(header))
        for line in cells:
            print(fmt(line))
        print(f"sum syt*ssyt = {weighted} = ({args.m}+{args.n})^{args.r} = {total}")
        if args.list:
            for row in table:
                fillings = enumerate_ssyt(tuple(row["shape"]), args.m, args.n)
                print(f"fillings of {_render_shape(row['shape'])}: {len(fillings)}")
                for filling in fillings:
                    print("  " + " / ".join(render_filling(filling, args.m)))

    if weighted != total:
        print(
            f"{PROG}: dimension identity failed: {weighted} != {total}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_verify(args) -> int:
    from .suites import run_suite

    cap = resolve_cap(args.cap)
    check_generators(args.grassmann_n)
    if args.suite == "group" and args.grassmann_n < 2:
        raise FormatError("the group suite needs --grassmann-n at least 2")
    checks = run_suite(
        args.suite,
        args.m,
        args.n,
        args.r,
        grassmann_n=args.grassmann_n,
        seed=args.seed,
        cap=cap,
    )
    ok = True
    for check in checks:
        print(_dump(check))
        ok = ok and check["pass"]
    return 0 if ok else 1


def cmd_berezinian(args) -> int:
    mat = _read_matrix(args.file)
    value = berezinian(mat)
    out = {
        "berezinian": _grassmann_json(value),
        "supertrace": _grassmann_json(supertrace(mat)),
    }
    print(_dump(out))
    return 0


def cmd_factor(args) -> int:
    mat = _read_matrix(args.file)
    upper, blockdiag, lower = ldu_factor(mat)
    verified = upper * blockdiag * lower == mat
    out = {
        "upper": upper.to_json(),
        "blockdiag": blockdiag.to_json(),
        "lower": lower.to_json(),
        "verified": verified,
    }
    print(_dump(out))
    return 0 if verified else 1


def _positive(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return number


def _nonnegative(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return number


def _add_dimension_args(parser, with_r: bool):
    parser.add_argument("-m", type=_nonnegative, required=True, help="even dimension")
    parser.add_argument("-n", type=_nonnegative, required=True, help="odd dimension")
    if with_r:
        parser.add_argument(
            "-r", type=_positive, default=2, help="tensor degree (default 2)"
        )
    parser.add_argument(
        "--cap",
        type=_positive,
        default=None,
        help=f"word-space size cap (default {DEFAULT_CAP}, env SUPERSCHUR_CAP)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves it
    unchanged, and SUPERSCHUR_CAP is read when a command runs, not here."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact tensor-representation checks for the general linear supergroup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tab = sub.add_parser(
        "tableaux", help="semistandard dimension table for (m|n) at degree r"
    )
    _add_dimension_args(p_tab, with_r=True)
    p_tab.add_argument(
        "--format", choices=("json", "table"), default="table", help="output format"
    )
    p_tab.add_argument(
        "--list", action="store_true", help="also print every semistandard filling"
    )
    p_tab.set_defaults(handler=cmd_tableaux)

    p_ver = sub.add_parser("verify", help="run a named exact verification suite")
    p_ver.add_argument("suite", choices=SUITE_NAMES)
    _add_dimension_args(p_ver, with_r=True)
    p_ver.add_argument(
        "--grassmann-n",
        dest="grassmann_n",
        type=_nonnegative,
        default=4,
        help=f"number of Grassmann generators for group checks (default 4, at most {MAX_GENERATORS})",
    )
    p_ver.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the group suite's sampled points (default 0); "
        "the other suites sample nothing and ignore it",
    )
    p_ver.set_defaults(handler=cmd_verify)

    p_ber = sub.add_parser(
        "berezinian", help="Berezinian and supertrace of a GL point"
    )
    p_ber.add_argument("file", help="supermatrix JSON file, or - for stdin")
    p_ber.set_defaults(handler=cmd_berezinian)

    p_fac = sub.add_parser("factor", help="LDU block factorization of a GL point")
    p_fac.add_argument("file", help="supermatrix JSON file, or - for stdin")
    p_fac.set_defaults(handler=cmd_factor)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "m") and args.m + args.n < 1:
        parser.error("need m + n >= 1")
    try:
        return args.handler(args)
    except CapExceeded as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    except (NotInvertible, ParityError, DimensionError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
