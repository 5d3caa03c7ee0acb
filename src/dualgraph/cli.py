"""Command-line front end.

Every successful invocation prints exactly one JSON document to stdout.
Rational values are serialized exactly (`"2/5"`, integers without the
denominator); graphs travel as canonical DGN strings inside the JSON.
Errors go to stderr as one line; the exit code distinguishes them:
0 success, 1 domain error, 2 parse error, 3 verification failures, 4 a
library defect (InternalDefect: an invariant of the library itself broke),
141 stdout closed by its reader before the output was written.

Every query, of the twig, graph and family groups alike, is a row of a
table per group (_QUERIES): a help text, one argument, the JSON document of
the parsed arguments, and the row's flags.  One loop per group registers the
rows and one handler prints the document.  Only verify, which writes a
report file and exits 3 when a check fails, keeps a handler of its own.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from .canonical import compute_dnatural, k_type_report
from .dgn import parse_dgn, serialize_dgn
from .errors import DomainError, InternalDefect, ParseError
from .families import FamilyInstance, build_family, classify_family_all
from .graphs import (
    contract_all, graph_d, is_negative_definite, shape_report, signed_determinant,
)
from .twigs import (
    adjoint,
    format_twig,
    inductance,
    parse_twig,
    twig_determinant,
    twig_from_inductance,
)
from .verify import SUITES, Budget, verify_all, verify_suite

_BUDGET_DEFAULTS = Budget()
_EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as shells report a closed pipe


def _emit(doc) -> None:
    """Print doc as JSON, with each Fraction as its str."""
    print(_printed(json.dumps, doc, sort_keys=True, indent=2, default=str))


def _printed(convert, *args, **kwargs) -> str:
    """The text convert makes of a result; a number with more digits than the
    interpreter converts to text (sys.get_int_max_str_digits) is a
    DomainError."""
    try:
        return convert(*args, **kwargs)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DomainError(
            f"result too long to print: more than {limit} digits"
        ) from None


def _read(arg: str) -> str:
    """The text of stdin for "-", else of the file arg; input that cannot be
    read or decoded is a ParseError."""
    try:
        if arg != "-":
            return Path(arg).read_text()
        if sys.stdin is None:  # closed by the caller, as by `<&-`
            raise OSError("stdin is closed")
        return sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(0, f"cannot read {'stdin' if arg == '-' else arg}: {exc}")


def _load_graph(arg: str):
    return parse_dgn(_read(arg))


def _load_spec(arg: str) -> FamilyInstance:
    raw = _read(arg) if arg == "-" else arg
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid spec JSON: {exc.msg}")
    except ValueError:  # an integer with too many digits
        limit = sys.get_int_max_str_digits()
        raise ParseError(
            1, f"invalid spec JSON: an integer has more than {limit} digits"
        )
    return FamilyInstance.from_json_dict(doc)


def _parse_fraction(text: str) -> Fraction:
    value = text.strip()
    try:
        # Fraction reads inner spaces from Python 3.13 on and "_" from 3.11 on
        if "_" in value or len(value.split()) > 1:
            raise ValueError(f"Invalid literal for Fraction: {value!r}")
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(1, f"invalid rational {text!r}: {exc}")


# -- queries ---------------------------------------------------------------------

_DGN_ARG = ("graph", "DGN file path, or - for stdin")
_SPEC_ARG = ("spec", "family spec JSON, or - for stdin")


def _classified(matches, reason) -> dict:
    """family classify's document: the first match and every match, or why
    the graph is in no family."""
    if not matches:
        return {"not_in_list": reason}
    return {"spec": matches[0].to_json_dict(), "matches": [m.to_json_dict() for m in matches]}


# Each group's queries, one row each: help, the one argument with its help,
# the JSON document of the parsed arguments, and any (flag, help) pairs, each
# flag a store_true.  A document looks this module's names up when it runs,
# so a name replaced on the module (as a tracer replaces it) is the one called.
_QUERIES = {
    ("twig", "twig arithmetic"): {
        "det": ("twig determinant", "twig", 'twig text, e.g. "[2,3]" or "[3*2,5]"',
                lambda a: {"d": twig_determinant(parse_twig(a.twig))}),
        "adjoint": ("adjoint twig", "twig", None,
                    lambda a: {"adjoint": format_twig(adjoint(parse_twig(a.twig)))}),
        "inductance": ("inductance e = d(overline)/d", "twig", None,
                       lambda a: {"e": inductance(parse_twig(a.twig))}),
        "from-e": ("twig with the given inductance", "value", 'rational in (0,1), e.g. "2/5"',
                   lambda a: {"twig": _printed(
                       format_twig, twig_from_inductance(_parse_fraction(a.value)))}),
    },
    ("graph", "graph queries"): {
        "negdef": ("negative definiteness", *_DGN_ARG,
                   lambda a: {"negdef": is_negative_definite(_load_graph(a.graph))}),
        "det": ("determinant and signed determinant", *_DGN_ARG, lambda a: {
            "d": graph_d(g := _load_graph(a.graph)), "signed": signed_determinant(g)}),
        "dnatural": ("adjunction coefficients", *_DGN_ARG, lambda a: {"alpha": sorted(
            map(list, compute_dnatural(_load_graph(a.graph)).coefficients.items()))}),
        "ktype": ("canonical type and C-pairing", *_DGN_ARG, lambda a: {
            "ktype": (rep := k_type_report(_load_graph(a.graph)))[0].value, "pairing": rep[1]}),
        "contract": ("contract all movable vertices", *_DGN_ARG, lambda a: {
            "graph": _printed(serialize_dgn, contract_all(_load_graph(a.graph)))}),
        # the report's fields, tuples printed as lists
        "shape": ("off-C component shapes", *_DGN_ARG, lambda a: {
            **vars(rep := shape_report(_load_graph(a.graph))),
            "components": [vars(comp) for comp in rep.components]}),
    },
    ("family", "boundary families"): {
        "build": ("assemble a family instance", *_SPEC_ARG, lambda a: {"graph": _printed(
            serialize_dgn, build_family(_load_spec(a.spec), strict=not a.allow_noncontractible))},
            ("--allow-noncontractible", "permit run lengths past the contractibility bound")),
        "classify": ("recognize a graph as a family instance", *_DGN_ARG,
                     lambda a: _classified(*classify_family_all(_load_graph(a.graph)))),
        "ktype": ("canonical type of a family instance", *_SPEC_ARG, lambda a: {
            "ktype": k_type_report(build_family(_load_spec(a.spec)))[0].value}),
    },
}


def _cmd_query(doc, args) -> int:
    _emit(doc(args))
    return 0


# -- verify ---------------------------------------------------------------------


def _cmd_verify(args) -> int:
    caps = {key: getattr(args, key) for key in ("max_det", "max_len", "max_n", "max_m")}
    for key, cap in caps.items():
        if cap < 0:
            raise ParseError(0, f"--{key.replace('_', '-')} must be >= 0, got {cap}")
    budget = Budget(**caps)
    # the report file is opened next, so a bad path fails before any suite
    try:
        out = open(args.json_path, "w") if args.json_path else nullcontext()
    except OSError as exc:
        raise ParseError(0, f"cannot write {args.json_path}: {exc}")
    with out:
        if args.suite == "all":
            report = verify_all(budget)
        else:
            report = verify_suite(args.suite, budget)
        text = json.dumps(report, sort_keys=True, indent=2)
        if args.json_path:
            out.write(text + "\n")
    print(text)
    return 0 if report["pass"] else 3


# -- parser ----------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: main() only reads it,
    and building it costs each in-process call more than most commands."""
    parser = argparse.ArgumentParser(
        prog="dualgraph",
        description="Weighted dual graphs of compactifications of the plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for (group, group_help), rows in _QUERIES.items():
        queries = sub.add_parser(group, help=group_help).add_subparsers(
            dest="subcommand", required=True
        )
        for name, (blurb, arg, arg_help, doc, *flags) in rows.items():
            cmd = queries.add_parser(name, help=blurb)
            cmd.add_argument(arg, help=arg_help)
            for flag, flag_help in flags:
                cmd.add_argument(flag, action="store_true", help=flag_help)
            cmd.set_defaults(func=functools.partial(_cmd_query, doc))

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument(
        "--suite", choices=SUITES + ("all",), default="all"
    )
    verify.add_argument("--max-det", type=int, default=_BUDGET_DEFAULTS.max_det)
    verify.add_argument("--max-len", type=int, default=_BUDGET_DEFAULTS.max_len)
    verify.add_argument("--max-n", type=int, default=_BUDGET_DEFAULTS.max_n)
    verify.add_argument("--max-m", type=int, default=_BUDGET_DEFAULTS.max_m)
    verify.add_argument("--json", dest="json_path", metavar="PATH")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalDefect as exc:
        print(f"error: library defect: {exc}", file=sys.stderr)
        return 4


def main_entry() -> None:
    if sys.stdin is not None:
        # decode stdin as strictly as files are read (the C locale would let
        # undecodable bytes through as surrogates)
        sys.stdin.reconfigure(errors="strict")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`dualgraph ... | head`): point stdout at
        # devnull so that the flush at exit cannot fail again, and exit as a
        # writer killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
