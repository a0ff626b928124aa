"""Command-line interface: censuses, spectra, tables, and verifications.

Exit codes: 0 success, 1 usage error, 2 golden/conjecture mismatch,
3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator
from functools import lru_cache
from operator import itemgetter

from .abelian import parse_group
from .brace import BraceTable, brace_from_subgroup, verify_brace, ybe_solution
from .counts import (
    CountReport,
    census,
    conjecture_report,
    cross_check,
    table1_report,
    table3_report,
    table4_report,
)
from .endo import enumerate_aut
from .errors import CapacityError, HolobraceError, InvalidInputError
from .holomorph import order_spectrum
from .presentations import parse_kind
from .regular import list_regular

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_CAPACITY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _digit_limit() -> int:
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0 where Python has no limit


_ECHO = 40  # the longest flag value a usage message repeats


def _echo(value) -> str:
    """`repr(value)` for a usage message, or its length when it is long."""
    text = repr(value)
    return text if len(text) <= _ECHO else f"<{len(str(value))} characters>"


def _int_flag(text: str) -> int:
    """`int(text)`; a value longer than Python's int-string digit limit is
    named by the limit, and a long one by its length, not echoed."""
    try:
        return int(text)
    except ValueError:
        limit = _digit_limit()
        long = 0 < limit < len(text)
        why = f"is longer than the {limit}-digit limit" if long else f"invalid int value: {_echo(text)}"
        raise argparse.ArgumentTypeError(why) from None


def _table_flag(text: str) -> int:
    """`--which`: table 1, 3 or 4, a long value not echoed."""
    which = _int_flag(text)
    if which not in (1, 3, 4):
        raise argparse.ArgumentTypeError(f"invalid choice: {_echo(which)} (choose from 1, 3, 4)")
    return which


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _open(path: str, mode: str):
    """`open(path, mode)`; a file argument that cannot be opened is an input error."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc.strerror}") from exc


def _cmd_census(args) -> int:
    group = parse_group(args.N)
    kind = parse_kind(args.G)
    res = census(group, kind, method=args.method)
    unchecked = cross_check(res) if args.cross_check else None
    if unchecked:
        sys.stderr.write(f"cross-check: {unchecked}\n")
    payload = {
        "schema": "v1",
        "N": group.display_name(),
        "G": kind.display_name(),
        "c": res.c,
        "r": res.r,
        "h": res.h,
        "method": res.method,
        "classes": [{"orbit": orbit, "stabilizer": stab} for orbit, stab in res.class_sizes],
    }
    _emit(_dump(payload))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    group = parse_group(args.N)
    spec = order_spectrum(group)
    if args.csv:
        lines = ["order,count"] + [f"{k},{v}" for k, v in spec.items()]
        text = "\n".join(lines) + "\n"
        if args.csv == "-":
            _emit(text)
        else:
            with _open(args.csv, "w") as fh:
                fh.write(text)
    if args.dump_aut:
        autgroup = enumerate_aut(group)
        blocks = [[m.to_json() for m in block] for block in autgroup.blocks]
        with _open(args.dump_aut, "w") as fh:
            fh.write(_dump({"schema": "v1", "N": group.display_name(), "blocks": blocks}) + "\n")
    payload = {
        "schema": "v1",
        "N": group.display_name(),
        "orders": {str(k): v for k, v in spec.items()},
        "max_order": max(spec),
    }
    _emit(_dump(payload))
    return EXIT_OK


def _report_for(which: int, n_max: int, s: int) -> CountReport:
    if which == 1:
        return table1_report()
    # argparse admits tables 1, 3 and 4 only
    return (table3_report if which == 3 else table4_report)(n_max, (1, s) if s != 1 else (1,))


def _cmd_tables(args) -> int:
    if args.which == 1:
        for flag, value in (("--n-max", args.n_max), ("--s", args.s)):
            if value is not None:
                raise _UsageError(f"{flag} {_echo(value)} does not apply to table 1, whose rows are fixed")
    n_max = 5 if args.n_max is None else args.n_max
    if n_max < 2:
        raise _UsageError(f"--n-max {_echo(n_max)} leaves the table empty; it must be at least 2")
    if args.s is not None and (args.s < 1 or args.s % 2 == 0):
        raise _UsageError(f"--s {_echo(args.s)} is not an odd part of |G|; it must be an odd integer at least 1")
    s, limit = 3 if args.s is None else args.s, _digit_limit()
    # 2^n_max * s, the largest order a row prints; past 4 * limit bits it is past 10^limit
    if limit and (n_max + s.bit_length() > 4 * limit or s << n_max >= 10**limit):
        raise _UsageError(f"--n-max and --s: 2^n_max * s, the largest order a row prints, has over {limit} digits")
    expected = None
    if args.golden:
        with _open(args.golden, "r") as fh:
            expected = fh.read()
    report = _report_for(args.which, n_max, s)
    if args.format == "csv":
        text = report.to_csv()
    elif args.format == "json":
        text = report.to_json()
    else:
        text = report.to_text()
    _emit(text)
    if expected is not None and expected != text:
        sys.stderr.write("golden mismatch\n")
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_verify_conjecture(args) -> int:
    if args.m_max < 3:
        raise _UsageError(f"--m-max {_echo(args.m_max)} leaves nothing to verify; it must be at least 3")
    report = conjecture_report(args.m_max)
    _emit(report.to_text())
    ok = all(row[4] and row[7] for row in report.rows)
    return EXIT_OK if ok else EXIT_MISMATCH


def _class_braces(args):
    group = parse_group(args.N)
    kind = parse_kind(args.G)
    # class representatives in deterministic order
    return group, kind, [cls.representative for cls in list_regular(group, kind)[1]]


def _dump_list(payload: dict, key: str, items: Iterable[Iterable[str]]) -> Iterator[str]:
    """`_dump(payload)` with a list at `key` whose entries' JSON texts come as
    pieces, one piece at a time."""
    head, _, tail = _dump({**payload, key: None}).partition(f'"{key}":null')
    yield f'{head}"{key}":['
    for i, pieces in enumerate(items):
        if i:
            yield ","
        yield from pieces
    yield "]" + tail


def _brace_pieces(bt: BraceTable) -> Iterator[str]:
    """`_dump(bt.to_json())` in pieces, each circ row `_dump(row)` joined
    from the index strings."""
    payload = bt.to_json()
    strs = list(map(str, range(bt.size)))
    rows = (["[", ",".join(itemgetter(*row)(strs)), "]"] for row in payload.pop("circ"))
    return _dump_list(payload, "circ", rows)


def _verified_brace(rep) -> BraceTable:
    bt = brace_from_subgroup(rep)
    if not verify_brace(bt):
        raise HolobraceError("brace axioms failed")
    return bt


def _cmd_brace_export(args) -> int:
    group, kind, reps = _class_braces(args)
    # one circ row per write: a single `_dump` would hold a str per entry of
    # every row until it joins them, and only one brace is built at a time,
    # and verified before its first row is written
    head = {"schema": "v1", "N": group.display_name(), "G": kind.display_name()}
    pieces = _dump_list(head, "braces", map(_brace_pieces, map(_verified_brace, reps)))
    if args.out and args.out != "-":
        with _open(args.out, "w") as fh:
            fh.writelines(pieces)
            fh.write("\n")
        _emit(_dump({"schema": "v1", "written": args.out, "count": len(reps)}))
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")
    return EXIT_OK


def _cmd_ybe_check(args) -> int:
    group, kind, reps = _class_braces(args)
    checked = []
    for rep in reps:
        try:
            # verifies the brace axioms, then involutivity and the braid relation
            ybe_solution(brace_from_subgroup(rep))
        except InvalidInputError as exc:
            raise HolobraceError("brace axioms failed") from exc
        # involutive and left non-degenerate, hence right non-degenerate (Rump 2005)
        checked.append({"left_nondegenerate": True, "right_nondegenerate": True})
    _emit(
        _dump(
            {
                "schema": "v1",
                "N": group.display_name(),
                "G": kind.display_name(),
                "braces_checked": len(checked),
                "involutive": True,
                "braid": True,
                "nondegeneracy": checked,
            }
        )
    )
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The CLI parser, built on first use and reused: `parse_args` keeps no
    state between calls."""
    parser = _Parser(prog="holobrace", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("census", help="count regular subgroups / braces / HGS for (N, G)")
    p.add_argument("--N", required=True, help='additive group, e.g. "c2xc8" or "[3,2,8]"')
    p.add_argument("--G", required=True, help='target kind, e.g. "q16" or "d32"')
    paths = p.add_mutually_exclusive_group()
    for flag, method, text in (
        ("--structured", "structured", "use the closed-form family solver"),
        ("--via-reduction", "reduction", "use the odd-part reduction"),
        ("--direct", "direct", "force the full scan of Hol(N)"),
        ("--sylow", "sylow", "force the Sylow-restricted search"),
    ):
        paths.add_argument(flag, dest="method", action="store_const", const=method, help=text)
    p.add_argument("--cross-check", action="store_true", help="also run a second path and compare")
    p.set_defaults(func=_cmd_census, method="auto")

    p = sub.add_parser("spectrum", help="element-order census of Hol(N)")
    p.add_argument("--N", required=True)
    p.add_argument("--csv", help='write "order,count" rows to a file ("-" for stdout)')
    p.add_argument("--dump-aut", help="write the enumerated Aut(N) matrices to a JSON file")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("tables", help="reproduce the counting tables")
    p.add_argument("--which", type=_table_flag, required=True, metavar="{1,3,4}")
    p.add_argument("--n-max", type=_int_flag, help="tables 3 and 4 only (default 5)")
    p.add_argument("--s", type=_int_flag, help="tables 3 and 4 only (default 3)")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--golden", help="diff the text output against this file")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("verify-conjecture", help="closed forms vs computed censuses")
    p.add_argument("--m-max", type=_int_flag, default=8)
    p.set_defaults(func=_cmd_verify_conjecture)

    p = sub.add_parser("brace-export", help="export class-representative braces as JSON")
    p.add_argument("--N", required=True)
    p.add_argument("--G", required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_brace_export)

    p = sub.add_parser("ybe-check", help="verify YBE solutions for the braces of (N, G)")
    p.add_argument("--N", required=True)
    p.add_argument("--G", required=True)
    p.set_defaults(func=_cmd_ybe_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except InvalidInputError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_USAGE
    except CapacityError as exc:
        sys.stderr.write(f"capacity exceeded: {exc.describe()}\n")
        return EXIT_CAPACITY
    except HolobraceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
