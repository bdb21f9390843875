"""Command line front end.

Every subcommand validates its flags, delegates the actual computation to
the library modules, and prints a single JSON report on stdout:

    {"command": ..., "results": ..., "toolVersion": ..., "wallTimeMs": ...}

wallTimeMs is the only field that varies between identical runs.  CSV is
available for Betti tables only (--emit csv), in which case the raw table
is printed instead of the JSON wrapper.  Exit codes: 0 on success, 1 when
a requested verification does not hold, 2 on usage errors.  Diagnostics go
to stderr; stdout carries nothing but the payload.
"""

from __future__ import annotations

import csv
import io
import json
import time

import click

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


def _echo_report(ctx, payload, exit_code=0):
    report = {
        "command": {
            "path": ctx.command_path,
            "params": {k: v for k, v in sorted(ctx.params.items())},
        },
        "results": payload,
        "toolVersion": __version__,
        "wallTimeMs": int((time.monotonic() - ctx.obj["start"]) * 1000),
    }
    click.echo(json.dumps(report, indent=2, sort_keys=True))
    ctx.exit(exit_code)


def _usage(message):
    raise click.UsageError(message)


@click.group(name="refleq")
@click.version_option(version=__version__, prog_name="refleq")
@click.pass_context
def cli(ctx):
    """Exact R-matrix, K-matrix and fixed-point computations."""
    # every subcommand's context shares this obj, so the start time is set once
    ctx.ensure_object(dict)
    ctx.obj.setdefault("start", time.monotonic())


# ---------------------------------------------------------------------------
# subcommands


@cli.command()
@click.option("--type", "type_name", required=True, help="ADE type, e.g. A3 or D4")
@click.pass_context
def dynkin(ctx, type_name):
    """Cartan data, longest word and diagram involution for an ADE type."""
    try:
        t = DynkinType.parse(type_name)
    except ValueError as e:
        _usage(f"--type: {e}")
    _echo_report(ctx, info_dict(t))


@cli.command()
@click.option("--type", "type_name", required=True, help="ADE type, e.g. A3 or D4")
@click.pass_context
def kclass(ctx, type_name):
    """Longest-word reflection transform on framing K-classes."""
    try:
        t = DynkinType.parse(type_name)
        transform = w0_summary_dict(t)
    except ValueError as e:
        _usage(f"--type: {e}")
    payload = {
        "type": type_name,
        "coxeterNumber": coxeter_number(t),
        "transform": transform,
    }
    _echo_report(ctx, payload)


@cli.group()
def tableaux():
    """Fixed-point tableau enumeration and Betti data."""


@tableaux.command()
@click.option("--kind", type=click.Choice(["sp", "so"]), required=True)
@click.option("--l", type=int, required=True)
@click.option("--w1", type=int, required=True)
@click.option("--emit", type=click.Choice(["json", "csv"]), default="json")
@click.pass_context
def betti(ctx, kind, l, w1, emit):
    """Fixed-point count, Poincare polynomial and tangent dimension."""
    try:
        if emit == "csv":
            # one row per size 2..l and w1 0..w1; an l below 2 is handed to
            # betti_rows as it is, which rejects it as the JSON report does
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["l", "w1", "dim", "poincare"])
            for size in range(min(l, 2), l + 1):
                for row in betti_rows(kind, size, w1):
                    writer.writerow([size, *row])
            click.echo(buf.getvalue(), nl=False)
            ctx.exit(0)
        payload = fixed_locus_report(kind, l, w1)
        if "parityComponents" in payload:
            payload["sizes"] = payload.pop("parityComponents")
            payload["components"] = len(payload["sizes"])
    except ValueError as e:
        _usage(str(e))
    _echo_report(ctx, payload)


@tableaux.command()
@click.option("--sign", type=click.Choice(["plus", "minus"]), required=True)
@click.option("--l", type=int, required=True)
@click.option("--w1", "w", type=int, required=True, help="total framing dimension")
@click.pass_context
def flags(ctx, sign, l, w):
    """Flag-type fixed points for the given twist sign."""
    try:
        points, diagnostics = flag_fixed_points(sign, l, w)
    except ValueError as e:
        _usage(str(e))
    for note in diagnostics:
        click.echo(note, err=True)
    payload = {
        "count": len(points),
        "points": [p.to_json() for p in points],
        "diagnostics": diagnostics,
    }
    _echo_report(ctx, payload)


@cli.group()
def rkmat():
    """Concrete R- and K-matrices in canonical string form."""


@rkmat.command()
@click.option("--kind", type=click.Choice(list(KINDS)), required=True)
@click.option("--l", type=click.IntRange(min=2), required=True)
@click.pass_context
def kmatrix(ctx, kind, l):
    """Boundary matrix entries for one kind and size."""
    try:
        m = k_matrix(kind, l, U)
    except ValueError as e:
        _usage(str(e))
    labels = list(m.row_labels)
    entries = [
        {"row": labels[i], "col": labels[j], "value": format_ratfunc(v)}
        for (i, j), v in sorted(m.entries.items())
    ]
    _echo_report(ctx, {"labels": labels, "entries": entries})


@cli.command()
@click.option("--scenario", type=click.Choice(list(KINDS)), default=None)
@click.option("--suite", "suite_name", default=None,
              help="one of: all, ybe, unitarity, reflection, exchange, boundary")
@click.option("--l", type=click.IntRange(min=2), default=None,
              help="site dimension; a suite runs every requested group at this size")
@click.option("--mode", type=click.Choice(["symbolic", "multipoint"]), default="symbolic",
              help="prover for --scenario; suites prove symbolically and reject multipoint")
@click.option("--jobs", type=click.IntRange(min=1), default=1)
@click.pass_context
def verify(ctx, scenario, suite_name, l, mode, jobs):
    """Check one reflection scenario or run a verification suite.

    The one size rule is the tensor dimension of each check, at most 256; a
    check over it exits 2.  A suite holds every item to it before the first
    runs and names the first one over it.  Without --l a suite runs every
    group at l = 2 and every group but exchange at l = 3.
    """
    if (scenario is None) == (suite_name is None):
        _usage("pass exactly one of --scenario or --suite")
    if suite_name is not None:
        if mode == "multipoint":
            _usage("--mode multipoint is not supported with --suite; suites prove symbolically")
        try:
            payload = run_suite(suite=suite_name, l=l, jobs=jobs)
        except ValueError as e:
            _usage(f"--suite: {e}")
        if not payload["ok"]:
            click.echo("suite verdicts deviate from pinned expectations", err=True)
        _echo_report(ctx, payload, exit_code=0 if payload["ok"] else 1)
    if l is None:
        _usage("--scenario requires --l")
    try:
        payload = check_reflection(scenario, l, mode=mode)
    except ValueError as e:
        _usage(str(e))
    if not payload["holds"]:
        click.echo(f"reflection fails for {scenario} at l={l}", err=True)
    _echo_report(ctx, payload, exit_code=0 if payload["holds"] else 1)


@cli.group()
def polarization():
    """Wall-consistency instances for polarization choices."""


@polarization.command("solve")
@click.option("--sign", type=click.Choice(["plus", "minus"]), required=True)
@click.option("--l", type=int, required=True)
@click.pass_context
def polarization_solve(ctx, sign, l):
    """Decide the instance and print a witness or a refutation chain."""
    try:
        inst = build_instance(_SIGN_FLAG[sign], l)
        res = solve(inst)
    except ValueError as e:
        _usage(str(e))
    payload = {
        "sign": sign,
        "l": l,
        "verdict": res["verdict"],
        "method": res["method"],
        "witness": choice_to_json(res["witness"]) if res["witness"] else None,
        "certificate": res["certificate"],
    }
    _echo_report(ctx, payload)


@polarization.command("summary")
@click.option("--l", type=click.IntRange(min=2), default=6, help="largest size to include")
@click.pass_context
def polarization_summary(ctx, l):
    """Verdict table over both signs up to the given size."""
    _echo_report(ctx, solve_table(l_values=tuple(range(2, l + 1))))


@cli.command("suite")
@click.argument("which", type=click.Choice(["acceptance"]))
@click.pass_context
def suite(ctx, which):
    """Run a named battery; 'acceptance' runs the full sign-off checks."""

    def progress(r, elapsed, budget):
        mark = "pass" if r["ok"] else "FAIL"
        limit = f" of {budget}s budget" if budget is not None else ""
        click.echo(f"[{mark}] {r['criterion']:2d} {r['title']} ({elapsed:.3f}s{limit})", err=True)

    payload = run_acceptance(progress=progress)
    _echo_report(ctx, payload, exit_code=0 if payload["ok"] else 1)


def main():
    cli(prog_name="refleq")


if __name__ == "__main__":
    main()
