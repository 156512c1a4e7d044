"""Command-line front end.

Input files contain a ring declaration, an optional support declaration
(``filt`` and ``cm`` default to x, y) and an ideal, e.g.::

    ring z0,z1,z2,x,y / char 0 / grevlex
    support x, y
    (x^2 + z0*y, y^2)

Blank lines and ``#`` comments are ignored; the ideal may span lines.
Exit codes: 0 success / all scenarios pass, 1 failure (a scenario fails,
or ``filt`` or ``cm`` refuses the ideal as a structure on its support and
prints ``error: ...``, e.g. ``error: radical of I_Y misses y``), 2
inconclusive (a resource guard, or a nilpotency index past 64), 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import CatalogError, load_catalog
from .groebner import Guard, ResourceGuardExceeded
from .ideals import Ideal
from .parse import ParseError, _count, format_ideal, parse_ring
from .ring import PolyRing
from .scenarios import ScenarioOptions, emit_report, run_scenario, scenario_ids
from .structures import Embedding, MultiStructure, StructureError, hilb_to_json

USAGE_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        # argparse reads an =-joined "--" as no value and skips its type and
        # choices; each parser refuses it for its own valued options, which
        # argparse also matches by a prefix, so a subcommand's usage names it
        args = sys.argv[1:] if args is None else list(args)
        own = [s for s, action in self._option_string_actions.items() if action.nargs != 0]
        for arg in args[:args.index("--") if "--" in args else None]:
            if arg.startswith("--") and arg.endswith("=--") and any(
                    s.startswith(arg[:-3]) for s in own):
                self.error("argument %s: expected one argument" % arg[:-3])
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _read_input(path, guard):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError("cannot read %s: %s" % (path, exc))
    ring_decl = None
    support = None
    rest = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        keyword = line.split(None, 1)[0]
        if keyword == "ring":
            ring_decl = line
        elif keyword == "support":
            support = tuple(line[len("support") :].replace(",", " ").split())
            if not support:
                raise _UsageError("%s: empty support declaration: no variables" % path)
        else:
            rest.append(line)
    if ring_decl is None:
        raise _UsageError("%s: missing ring declaration" % path)
    if not rest:
        raise _UsageError("%s: missing ideal" % path)
    try:
        ring = parse_ring(ring_decl)
        ideal = Ideal.parse(ring, " ".join(rest), guard)
    except ParseError as exc:
        raise _UsageError("%s: %s" % (path, exc))
    for k, v in enumerate(support or ()):
        if v not in ring.names:
            raise _UsageError("%s: support variable %s not in ring" % (path, v))
        if v in support[:k]:
            raise _UsageError("%s: support variable %s repeated" % (path, v))
    return ring, support, ideal


class _UsageError(Exception):
    pass


def _max_degree(text):
    try:
        return _count(text, "max degree")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _characteristic(text):
    """0 or a prime, read as a ring declaration reads it, of any length, and
    checked by building its field; a sign is read, so -3 is refused as no prime."""
    digits = text.removeprefix("-")
    try:
        char = _count(digits, "characteristic")
        return PolyRing((), char=char if digits == text else -char).char
    except ValueError as exc:  # a ParseError too
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_homogeneous(path, guard):
    """``_read_input`` for the commands that need a homogeneous ideal."""
    ring, support, ideal = _read_input(path, guard)
    for g in ideal.gens:
        if not g.is_homogeneous():
            raise _UsageError("%s: inhomogeneous generator %s has no projective locus" % (path, g))
    return ring, support, ideal


def _structure(path, guard):
    """The structure on the declared support, by default on (x, y)."""
    ring, support, ideal = _read_homogeneous(path, guard)
    if support is None:
        if not {"x", "y"} <= set(ring.names):
            raise _UsageError("%s: no support declaration and no default x, y variables" % path)
        support = ("x", "y")
    try:
        emb = Embedding(ring, support, guard)
    except StructureError as exc:  # an empty X is bad input, not a verdict
        raise _UsageError(str(exc))
    return MultiStructure(emb, ideal)


def _cmd_gb(args, guard):
    ring, _support, ideal = _read_input(args.file, guard)
    print(format_ideal(ideal.groebner()))
    return 0


def _cmd_filt(args, guard):
    st = _structure(args.file, guard)
    print(json.dumps(st.report(), indent=2))
    return 0


def _cmd_cm(args, guard):
    st = _structure(args.file, guard)
    cm, locus = st.locally_cm()
    if cm:
        print("locally-cm: true")
    else:
        print("locally-cm: false")
        print("non-cm-locus: %s" % format_ideal(locus.groebner()))
    return 0


def _cmd_hilb(args, guard):
    _ring, _support, ideal = _read_homogeneous(args.file, guard)
    hp = ideal.hilbert_polynomial()
    if args.pbasis:
        print(json.dumps(hilb_to_json(hp)))
    else:
        print(hp)
    return 0


def _cmd_verify(args, guard):
    targets = scenario_ids() if args.scenario == "all" else [args.scenario]
    opts = ScenarioOptions(char=args.char, seed=args.seed, guard=guard)
    results = [run_scenario(sid, opts) for sid in targets]
    text, code = emit_report(results, fmt=args.format)
    print(text)
    return code


def _cmd_catalog(args, guard):
    for entry in load_catalog():
        chars = ",".join("p%d" % c for c in entry.chars)
        print(
            "%-12s mult=%d cm=%s type_i=%s chars=%s %s"
            % (
                entry.id,
                entry.multiplicity,
                entry.locally_cm,
                entry.type_i,
                chars,
                entry.gens_text,
            )
        )
    return 0


def build_parser():
    parser = _Parser(prog="ms", description="multiple-structure workbench")
    parser.add_argument("--max-degree", type=_max_degree,
                        help="degree budget for Groebner computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gb", help="reduced Groebner basis of the input ideal")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_gb)

    p = sub.add_parser("filt", help="structure report with the S1-filtration")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_filt)

    p = sub.add_parser("cm", help="local Cohen-Macaulay verdict")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_cm)

    p = sub.add_parser("hilb", help="Hilbert polynomial of the input ideal")
    p.add_argument("file")
    p.add_argument("--pbasis", action="store_true", help="emit P-basis JSON")
    p.set_defaults(fn=_cmd_hilb)

    p = sub.add_parser("verify", help="run verification scenarios")
    p.add_argument("scenario", choices=scenario_ids() + ["all"], metavar="scenario",
                   help="scenario id or 'all'")
    p.add_argument("--char", type=_characteristic, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("catalog", help="inspect the classification catalog")
    p.add_argument("action", choices=("list",))
    p.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    guard = None if args.max_degree is None else Guard(max_degree=args.max_degree)
    try:
        return args.fn(args, guard)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except ResourceGuardExceeded as exc:
        print("inconclusive: %s" % exc, file=sys.stderr)
        return 2
    except (ParseError, CatalogError, StructureError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
