"""Command line front end.

Every subcommand validates its flags, delegates the actual computation to
the library modules, and prints a single JSON report on stdout:

    {"command": ..., "results": ..., "toolVersion": ..., "wallTimeMs": ...}

wallTimeMs is the only field that varies between identical runs.  CSV is
available for Betti tables only (--emit csv), in which case the raw table
is printed instead of the JSON wrapper.  Exit codes: 0 on success, 1 when
a requested verification does not hold, 2 on usage errors.  Diagnostics go
to stderr; stdout carries nothing but the payload.

Each command function takes the parsed arguments and returns the exit code.
The arguments also carry the command's own parser (_parser), which names the
command and reports its usage errors, and the start time (_start); every
other field is an option, echoed in the report as the command's params.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

from . import __version__
from .dynkin import DynkinType, coxeter_number, info_dict
from .field import U, format_ratfunc
from .kclass import w0_summary_dict
from .polarization import build_instance, choice_to_json, solve, solve_table
from .relations import check_reflection, run_suite
from .rkmat import KINDS, k_matrix
from .tableaux import betti_rows, fixed_locus_report, flag_fixed_points
from .acceptance import run_acceptance

_SIGN_FLAG = {"plus": "+", "minus": "-"}


def _report(args, payload, exit_code=0):
    """Print the JSON report of the parsed command and return exit_code."""
    report = {
        "command": {
            "path": args._parser.prog,
            "params": {k: v for k, v in sorted(vars(args).items()) if not k.startswith("_")},
        },
        "results": payload,
        "toolVersion": __version__,
        "wallTimeMs": int((time.monotonic() - args._start) * 1000),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return exit_code


def _warn(message):
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def dynkin(args):
    """Cartan data, longest word and diagram involution for an ADE type."""
    try:
        t = DynkinType.parse(args.type_name)
    except ValueError as e:
        args._parser.error(f"--type: {e}")
    return _report(args, info_dict(t))


def kclass(args):
    """Longest-word reflection transform on framing K-classes."""
    try:
        t = DynkinType.parse(args.type_name)
        transform = w0_summary_dict(t)
    except ValueError as e:
        args._parser.error(f"--type: {e}")
    payload = {
        "type": args.type_name,
        "coxeterNumber": coxeter_number(t),
        "transform": transform,
    }
    return _report(args, payload)


def betti(args):
    """Fixed-point count, Poincare polynomial and tangent dimension."""
    kind, l, w1 = args.kind, args.l, args.w1
    try:
        if args.emit == "csv":
            # one row per size 2..l and w1 0..w1; an l below 2 is handed to
            # betti_rows as it is, which rejects it as the JSON report does.
            # csv is imported here, so no other command loads it
            import csv

            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["l", "w1", "dim", "poincare"])
            for size in range(min(l, 2), l + 1):
                for row in betti_rows(kind, size, w1):
                    writer.writerow([size, *row])
            sys.stdout.write(buf.getvalue())
            return 0
        payload = fixed_locus_report(kind, l, w1)
        if "parityComponents" in payload:
            payload["sizes"] = payload.pop("parityComponents")
            payload["components"] = len(payload["sizes"])
    except ValueError as e:
        args._parser.error(str(e))
    return _report(args, payload)


def flags(args):
    """Flag-type fixed points for the given twist sign."""
    try:
        points, diagnostics = flag_fixed_points(args.sign, args.l, args.w)
    except ValueError as e:
        args._parser.error(str(e))
    for note in diagnostics:
        _warn(note)
    payload = {
        "count": len(points),
        "points": [p.to_json() for p in points],
        "diagnostics": diagnostics,
    }
    return _report(args, payload)


def kmatrix(args):
    """Boundary matrix entries for one kind and size."""
    try:
        m = k_matrix(args.kind, args.l, U)
    except ValueError as e:
        args._parser.error(str(e))
    labels = list(m.row_labels)
    entries = [
        {"row": labels[i], "col": labels[j], "value": format_ratfunc(v)}
        for (i, j), v in sorted(m.entries.items())
    ]
    return _report(args, {"labels": labels, "entries": entries})


def verify(args):
    """Check one reflection scenario or run a verification suite.

    The one size rule is the tensor dimension of each check, at most 256; a
    check over it exits 2.  A suite holds every item to it before the first
    runs and names the first one over it.  Without --l a suite runs every
    group at l = 2 and every group but exchange at l = 3.
    """
    scenario, suite_name, l = args.scenario, args.suite_name, args.l
    if (scenario is None) == (suite_name is None):
        args._parser.error("pass exactly one of --scenario or --suite")
    if suite_name is not None:
        if args.mode == "multipoint":
            args._parser.error("--mode multipoint is not supported with --suite; suites prove symbolically")
        try:
            payload = run_suite(suite=suite_name, l=l)
        except ValueError as e:
            args._parser.error(f"--suite: {e}")
        if not payload["ok"]:
            _warn("suite verdicts deviate from pinned expectations")
        return _report(args, payload, exit_code=0 if payload["ok"] else 1)
    if l is None:
        args._parser.error("--scenario requires --l")
    try:
        payload = check_reflection(scenario, l, mode=args.mode)
    except ValueError as e:
        args._parser.error(str(e))
    if not payload["holds"]:
        _warn(f"reflection fails for {scenario} at l={l}")
    return _report(args, payload, exit_code=0 if payload["holds"] else 1)


def polarization_solve(args):
    """Decide the instance and print a witness or a refutation chain."""
    try:
        inst = build_instance(_SIGN_FLAG[args.sign], args.l)
        res = solve(inst)
    except ValueError as e:
        args._parser.error(str(e))
    payload = {
        "sign": args.sign,
        "l": args.l,
        "verdict": res["verdict"],
        "method": res["method"],
        "witness": choice_to_json(res["witness"]) if res["witness"] else None,
        "certificate": res["certificate"],
    }
    return _report(args, payload)


def polarization_summary(args):
    """Verdict table over both signs up to the given size."""
    return _report(args, solve_table(l_values=tuple(range(2, args.l + 1))))


def suite(args):
    """Run a named battery; 'acceptance' runs the full sign-off checks."""

    def progress(r, elapsed, budget):
        mark = "pass" if r["ok"] else "FAIL"
        limit = f" of {budget}s budget" if budget is not None else ""
        _warn(f"[{mark}] {r['criterion']:2d} {r['title']} ({elapsed:.3f}s{limit})")

    payload = run_acceptance(progress=progress)
    return _report(args, payload, exit_code=0 if payload["ok"] else 1)


# ---------------------------------------------------------------------------
# the parser


class _AtLeast(argparse.Action):
    """An integer option below whose minimum a value is a usage error."""

    def __init__(self, option_strings, dest, minimum, **kwargs):
        super().__init__(option_strings, dest, type=int, **kwargs)
        self.minimum = minimum

    def __call__(self, parser, namespace, value, option_string=None):
        if value < self.minimum:
            parser.error(f"Invalid value for '{option_string}': {value} is not in the range x>={self.minimum}.")
        setattr(namespace, self.dest, value)


def _parser():
    """The root parser; every command's parser holds its function as _run."""
    root = argparse.ArgumentParser(
        prog="refleq", description="Exact R-matrix, K-matrix and fixed-point computations.", allow_abbrev=False
    )
    root.add_argument("--version", action="version", version=f"refleq, version {__version__}")
    top = root.add_subparsers(metavar="COMMAND", required=True)

    def group(name, description):
        parser = top.add_parser(name, help=description, description=description, allow_abbrev=False)
        return parser.add_subparsers(metavar="COMMAND", required=True)

    def command(subparsers, run, name=None):
        doc = "\n".join(line.strip() for line in (run.__doc__ or "").splitlines())
        parser = subparsers.add_parser(
            name or run.__name__, help=doc.partition("\n")[0], description=doc,
            formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False,
        )
        parser.set_defaults(_run=run, _parser=parser)
        return parser

    for run in (dynkin, kclass):
        p = command(top, run)
        p.add_argument("--type", dest="type_name", metavar="TYPE", required=True, help="ADE type, e.g. A3 or D4")

    tableaux = group("tableaux", "Fixed-point tableau enumeration and Betti data.")
    p = command(tableaux, betti)
    p.add_argument("--kind", choices=["sp", "so"], required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--w1", type=int, required=True)
    p.add_argument("--emit", choices=["json", "csv"], default="json")
    p = command(tableaux, flags)
    p.add_argument("--sign", choices=["plus", "minus"], required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--w1", dest="w", metavar="W1", type=int, required=True, help="total framing dimension")

    p = command(group("rkmat", "Concrete R- and K-matrices in canonical string form."), kmatrix)
    p.add_argument("--kind", choices=list(KINDS), required=True)
    p.add_argument("--l", action=_AtLeast, minimum=2, required=True)

    p = command(top, verify)
    p.add_argument("--scenario", choices=list(KINDS), default=None)
    p.add_argument("--suite", dest="suite_name", metavar="SUITE", default=None,
                   help="one of: all, ybe, unitarity, reflection, exchange, boundary")
    p.add_argument("--l", action=_AtLeast, minimum=2, default=None,
                   help="site dimension; a suite runs every requested group at this size")
    p.add_argument("--mode", choices=["symbolic", "multipoint"], default="symbolic",
                   help="prover for --scenario; suites prove symbolically and reject multipoint")

    polarization = group("polarization", "Wall-consistency instances for polarization choices.")
    p = command(polarization, polarization_solve, "solve")
    p.add_argument("--sign", choices=["plus", "minus"], required=True)
    p.add_argument("--l", type=int, required=True)
    p = command(polarization, polarization_summary, "summary")
    p.add_argument("--l", action=_AtLeast, minimum=2, default=6, help="largest size to include")

    command(top, suite).add_argument("which", choices=["acceptance"])
    return root


def main(argv=None):
    """Run the command line argv (sys.argv[1:] by default); returns the exit code."""
    args, unknown = _parser().parse_known_args(argv, argparse.Namespace(_start=time.monotonic()))
    if unknown:
        # reported with the usage of the command they were given to
        args._parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args._run(args)


if __name__ == "__main__":
    sys.exit(main())
