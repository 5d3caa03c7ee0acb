"""Command-line front end.

Every successful invocation prints exactly one JSON document to stdout.
Rational values are serialized exactly (`"2/5"`, integers without the
denominator); graphs travel as canonical DGN strings inside the JSON.
Errors go to stderr as one line; the exit code distinguishes them:
0 success, 1 domain error, 2 parse error, 3 verification failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .canonical import compute_dnatural, k_type_report
from .dgn import parse_dgn, serialize_dgn
from .errors import DomainError, ParseError
from .families import (
    FamilyInstance,
    build_family,
    classify_family_all,
)
from .graphs import (
    contract_all,
    graph_d,
    is_negative_definite,
    shape_report,
    signed_determinant,
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


def _emit(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _arg_or_stdin(value: str) -> str:
    return sys.stdin.read() if value == "-" else value


def _load_graph(arg: str):
    if arg == "-":
        return parse_dgn(sys.stdin.read())
    try:
        text = Path(arg).read_text()
    except OSError as exc:
        raise ParseError(0, f"cannot read {arg}: {exc}")
    return parse_dgn(text)


def _load_spec(arg: str) -> FamilyInstance:
    raw = _arg_or_stdin(arg)
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid spec JSON: {exc.msg}")
    return FamilyInstance.from_json_dict(doc)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(1, f"invalid rational {text!r}: {exc}")


# -- twig subcommands ---------------------------------------------------------


def _cmd_twig_det(args) -> int:
    _emit({"d": twig_determinant(parse_twig(args.twig))})
    return 0


def _cmd_twig_adjoint(args) -> int:
    _emit({"adjoint": format_twig(adjoint(parse_twig(args.twig)))})
    return 0


def _cmd_twig_inductance(args) -> int:
    _emit({"e": str(inductance(parse_twig(args.twig)))})
    return 0


def _cmd_twig_from_e(args) -> int:
    _emit({"twig": format_twig(twig_from_inductance(_parse_fraction(args.value)))})
    return 0


# -- graph subcommands --------------------------------------------------------


def _cmd_graph_negdef(args) -> int:
    _emit({"negdef": is_negative_definite(_load_graph(args.graph))})
    return 0


def _cmd_graph_det(args) -> int:
    g = _load_graph(args.graph)
    _emit({"d": graph_d(g), "signed": signed_determinant(g)})
    return 0


def _cmd_graph_dnatural(args) -> int:
    g = _load_graph(args.graph)
    alpha = compute_dnatural(g).coefficients
    _emit({"alpha": [[v, str(alpha[v])] for v in sorted(alpha)]})
    return 0


def _cmd_graph_ktype(args) -> int:
    ktype, pairing = k_type_report(_load_graph(args.graph))
    _emit({"ktype": ktype.value, "pairing": str(pairing)})
    return 0


def _cmd_graph_contract(args) -> int:
    _emit({"graph": serialize_dgn(contract_all(_load_graph(args.graph)))})
    return 0


def _cmd_graph_shape(args) -> int:
    rep = shape_report(_load_graph(args.graph))
    # the reports' fields, tuples printed as lists
    _emit({**vars(rep), "components": [vars(comp) for comp in rep.components]})
    return 0


# -- family subcommands -------------------------------------------------------


def _cmd_family_build(args) -> int:
    spec = _load_spec(args.spec)
    g = build_family(spec, strict=not args.allow_noncontractible)
    _emit({"graph": serialize_dgn(g)})
    return 0


def _cmd_family_classify(args) -> int:
    matches, reason = classify_family_all(_load_graph(args.graph))
    if matches:
        _emit(
            {
                "spec": matches[0].to_json_dict(),
                "matches": [m.to_json_dict() for m in matches],
            }
        )
    else:
        _emit({"not_in_list": reason})
    return 0


def _cmd_family_ktype(args) -> int:
    g = build_family(_load_spec(args.spec))
    ktype, _ = k_type_report(g)
    _emit({"ktype": ktype.value})
    return 0


# -- verify ---------------------------------------------------------------------


def _cmd_verify(args) -> int:
    budget = Budget(
        max_det=args.max_det,
        max_len=args.max_len,
        max_n=args.max_n,
        max_m=args.max_m,
    )
    if args.suite == "all":
        report = verify_all(budget)
    else:
        report = verify_suite(args.suite, budget)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.json_path:
        Path(args.json_path).write_text(text + "\n")
    print(text)
    return 0 if report["pass"] else 3


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualgraph",
        description="Weighted dual graphs of compactifications of the plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    twig = sub.add_parser("twig", help="twig arithmetic").add_subparsers(
        dest="subcommand", required=True
    )
    cmd = twig.add_parser("det", help="twig determinant")
    cmd.add_argument("twig", help='twig text, e.g. "[2,3]" or "[3*2,5]"')
    cmd.set_defaults(func=_cmd_twig_det)
    cmd = twig.add_parser("adjoint", help="adjoint twig")
    cmd.add_argument("twig")
    cmd.set_defaults(func=_cmd_twig_adjoint)
    cmd = twig.add_parser("inductance", help="inductance e = d(overline)/d")
    cmd.add_argument("twig")
    cmd.set_defaults(func=_cmd_twig_inductance)
    cmd = twig.add_parser("from-e", help="twig with the given inductance")
    cmd.add_argument("value", help='rational in [0,1), e.g. "2/5"')
    cmd.set_defaults(func=_cmd_twig_from_e)

    graph = sub.add_parser("graph", help="graph queries").add_subparsers(
        dest="subcommand", required=True
    )
    for name, func, blurb in (
        ("negdef", _cmd_graph_negdef, "negative definiteness"),
        ("det", _cmd_graph_det, "determinant and signed determinant"),
        ("dnatural", _cmd_graph_dnatural, "adjunction coefficients"),
        ("ktype", _cmd_graph_ktype, "canonical type and C-pairing"),
        ("contract", _cmd_graph_contract, "contract all movable vertices"),
        ("shape", _cmd_graph_shape, "off-C component shapes"),
    ):
        cmd = graph.add_parser(name, help=blurb)
        cmd.add_argument("graph", help="DGN file path, or - for stdin")
        cmd.set_defaults(func=func)

    family = sub.add_parser("family", help="boundary families").add_subparsers(
        dest="subcommand", required=True
    )
    cmd = family.add_parser("build", help="assemble a family instance")
    cmd.add_argument("spec", help="family spec JSON, or - for stdin")
    cmd.add_argument(
        "--allow-noncontractible",
        action="store_true",
        help="permit run lengths past the contractibility bound",
    )
    cmd.set_defaults(func=_cmd_family_build)
    cmd = family.add_parser("classify", help="recognize a graph as a family instance")
    cmd.add_argument("graph", help="DGN file path, or - for stdin")
    cmd.set_defaults(func=_cmd_family_classify)
    cmd = family.add_parser("ktype", help="canonical type of a family instance")
    cmd.add_argument("spec", help="family spec JSON, or - for stdin")
    cmd.set_defaults(func=_cmd_family_ktype)

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


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
