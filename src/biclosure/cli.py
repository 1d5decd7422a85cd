"""Command-line surface.

One verb per invocation. Posets come in as JSON, either inline or as a
file path; everything going out is JSON with sorted keys, so identical
input and flags produce byte-identical output. DOT is write-only.

Exit codes: 0 all checks passed, 1 a check failed (the report carries
the witness), 2 usage or input error, 3 a bound or the interpreter's
recursion limit was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bitops import bits
from .closure import closed_open_family, induced_closures
from .dualspace import DUAL_POINT_CAP, _orthodual, dual_space
from .errors import BiclosureError, BoundExceeded
from .poset import (
    MAX_CATALOG_N,
    Poset,
    _hasse_lines,
    find_orthocomplementations,
    poset_from_json,
    poset_of_family,
    poset_to_json,
)
from .represent import (
    SUITES,
    SWEEP_CAP,
    _catalog_reports,
    _correspondence,
    check_poset,
    represent_distributive,
    represent_general,
    represent_orthoposet,
    stone,
)


def _load_poset(arg: str) -> Poset:
    if arg.lstrip().startswith("{"):
        text, source = arg, "<inline json>"
    else:
        source = arg
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return poset_from_json(data)


def _emit_pieces(pieces, out_path) -> None:
    """Write each string of ``pieces`` in turn; they are never joined."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit_text(text: str, out_path) -> None:
    _emit_pieces((text,), out_path)


def _emit_json(payload, out_path) -> None:
    _emit_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _side_by_side_dot(poset: Poset, family) -> str:
    """The input Hasse diagram next to its represented family."""
    lines = ["digraph representation {", "  rankdir=BT;"]
    lines.append("  subgraph cluster_input {")
    lines.append('    label="input order";')
    lines += _hasse_lines(poset, "p", "    ")
    lines.append("  }")
    lines.append("  subgraph cluster_family {")
    lines.append('    label="closed-open family";')
    lines += _hasse_lines(poset_of_family(family), "f", "    ")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _maybe_dot(args, poset: Poset, family) -> None:
    if getattr(args, "dot", None):
        _emit_text(_side_by_side_dot(poset, family), args.dot)


# --- verbs -------------------------------------------------------------------


def _cmd_dual(args) -> int:
    poset = _load_poset(args.poset)
    star = dual_space(poset, args.dual_cap)
    payload = {
        "poset": poset_to_json(poset),
        "point_count": star.size,
        "points": star.to_json(),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_represent(args) -> int:
    poset = _load_poset(args.poset)
    if args.kind == "general":
        _, family, report = represent_general(poset, args.dual_cap)
    elif args.kind == "distributive":
        _, family, report = represent_distributive(poset, args.dual_cap)
    else:
        orthos = find_orthocomplementations(poset)
        if not orthos:
            raise BiclosureError("poset admits no orthocomplementation")
        if not 0 <= args.ortho_index < len(orthos):
            raise BiclosureError(
                f"ortho index {args.ortho_index} out of range, "
                f"{len(orthos)} found"
            )
        space, report = represent_orthoposet(
            poset, orthos[args.ortho_index], args.dual_cap
        )
        family = space.clopen
    payload = {"kind": args.kind, "report": report.to_json()}
    _emit_json(payload, args.out)
    _maybe_dot(args, poset, family)
    return 0 if report.isomorphism else 1


def _cmd_ortho(args) -> int:
    poset = _load_poset(args.poset)
    orthos = find_orthocomplementations(poset)
    payload = {
        "poset": poset_to_json(poset),
        "count": len(orthos),
        "orthocomplementations": [f.to_json() for f in orthos],
        "correspondence": None,
    }
    code = 0
    # the correspondence is stated for bounded posets only, so only they
    # need the dual space, and the sweep reads it only up to --s-cap
    # points: a larger one is never built
    if poset.is_bounded():
        try:
            star = dual_space(poset, args.s_cap)
        except BoundExceeded:
            pass
        else:
            if star.size > args.dual_cap:
                raise BoundExceeded(
                    f"dual space has {star.size} points, "
                    f"over the configured cap {args.dual_cap}"
                )
            duals = [_orthodual(star, f) for f in orthos]
            ok, detail = _correspondence(star, orthos, duals, args.s_cap)
            payload["correspondence"] = detail
            code = 0 if ok else 1
    _emit_json(payload, args.out)
    return code


def _cmd_stone(args) -> int:
    poset = _load_poset(args.poset)
    space = stone(poset, args.dual_cap)
    labels = poset.labels
    payload = {
        "poset": poset_to_json(poset),
        "point_count": space.subspace.size,
        "points": space.subspace.to_json(),
        "clopen_count": len(space.clopen),
        "clopen": [sorted(bits(x)) for x in space.clopen],
        "kernels": [sorted(labels[i] for i in bits(k)) for k in space.kernels],
    }
    _emit_json(payload, args.out)
    _maybe_dot(args, poset, space.clopen)
    return 0


def _cmd_check(args) -> int:
    poset = _load_poset(args.poset)
    report = check_poset(
        poset, suite=args.suite, sweep_cap=args.s_cap, dual_cap=args.dual_cap
    )
    _emit_json(report.to_json(), args.out)
    return 0 if report.all_passed else 1


def _encode_report(report) -> tuple:
    """A class's pass flag and its report's text, indented to its depth
    in the catalog's list (JSON strings hold no raw newline)."""
    text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    return report.all_passed, text.replace("\n", "\n    ")


def _cmd_catalog(args) -> int:
    # map drops each report once it is encoded, before the next class is
    # checked. "all_passed" sorts before "reports", so the texts are held
    # to the end of the sweep, then written as the pieces that
    # json.dumps(payload, indent=2, sort_keys=True) + "\n" would join.
    reports = _catalog_reports(args.max_n, args.suite, args.s_cap)
    encoded = list(map(_encode_report, reports))
    passed = all(ok for ok, _ in encoded)
    pieces = [
        f'{{\n  "all_passed": {json.dumps(passed)},\n'
        f'  "classes": {len(encoded)},\n'
        f'  "max_n": {args.max_n},\n'
        '  "reports": ['
    ]
    for k, (_, text) in enumerate(encoded):
        pieces += (",\n    " if k else "\n    ", text)
    pieces.append(f'\n  ],\n  "suite": {json.dumps(args.suite)}\n}}\n')
    _emit_pieces(pieces, args.out)
    return 0 if passed else 1


def _cmd_export_dot(args) -> int:
    poset = _load_poset(args.poset)
    c1, c2 = induced_closures(dual_space(poset, args.dual_cap))
    family = closed_open_family(c1, c2)
    _emit_text(_side_by_side_dot(poset, family), args.out)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biclosure",
        description="dual spaces, induced closures, and order representations",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, dot=True):
        p.add_argument("poset", help="poset JSON, inline or a file path")
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument(
            "--dual-cap",
            type=_positive_int,
            default=DUAL_POINT_CAP,
            help="abort if the dual space would exceed this many points",
        )
        if dot:
            p.add_argument(
                "--dot",
                default=None,
                help="also write a side-by-side DOT diagram here",
            )

    def sweep(p, suite=True):
        if suite:
            p.add_argument(
                "--suite", choices=SUITES, default="all", help="narrow the battery"
            )
        p.add_argument(
            "--s-cap",
            type=_positive_int,
            default=SWEEP_CAP,
            help="bound the subspace sweep: skip it above this many dual points",
        )

    p = sub.add_parser("dual", help="enumerate the dual space")
    common(p, dot=False)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("represent", help="represent the poset in a closed-open family")
    common(p)
    p.add_argument(
        "--kind",
        choices=("general", "distributive", "ortho"),
        default="general",
        help="which construction to run",
    )
    p.add_argument(
        "--ortho-index",
        type=int,
        default=0,
        help="which orthocomplementation to use with --kind ortho",
    )
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("ortho", help="list orthocomplementations, match subspaces")
    common(p, dot=False)
    sweep(p, suite=False)
    p.set_defaults(func=_cmd_ortho)

    p = sub.add_parser("stone", help="point space of a Boolean lattice")
    common(p)
    p.set_defaults(func=_cmd_stone)

    p = sub.add_parser("check", help="run the law checks on one poset")
    common(p, dot=False)
    sweep(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("catalog", help="sweep every class up to --max-n")
    p.add_argument(
        "--max-n",
        type=_positive_int,
        default=MAX_CATALOG_N,
        help="run the battery over every class of at most this many elements",
    )
    sweep(p)
    p.add_argument("--out", default=None, help="write the report here")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("export-dot", help="input order and represented family, DOT")
    common(p, dot=False)
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (BoundExceeded, RecursionError) as exc:
        # a RecursionError is a RuntimeError, but an input too deep for
        # the interpreter's stack is a size limit, not a failed law
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BiclosureError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
