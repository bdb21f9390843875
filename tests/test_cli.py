"""Command line tests: envelope shape, routing, exit codes, determinism.

The CLI is a thin binding, so most tests either compare its payload against
the library function it must delegate to or stub that function out and
check the routing.  One fast verification suite runs for real end to end.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from refleq import __version__
from refleq import cli as cli_module
from refleq import tableaux as tableaux_module
from refleq.dynkin import DynkinType, info_dict
from refleq.kclass import w0_summary_dict
from refleq.polarization import build_instance, replay_certificate, solve_table
from refleq.tableaux import betti_report


def run_cli(*args):
    """Run the CLI in process: stdout, stderr, output (stdout then stderr)
    and exit_code, whether main returned it or raised SystemExit."""
    # newline=None reads the CSV writer's \r\n line ends as \n
    out, err = io.StringIO(newline=None), io.StringIO(newline=None)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            exit_code = cli_module.main(list(args))
        except SystemExit as e:
            exit_code = e.code
    stdout, stderr = out.getvalue(), err.getvalue()
    return SimpleNamespace(stdout=stdout, stderr=stderr, output=stdout + stderr, exit_code=exit_code)


def payload(result):
    report = json.loads(result.stdout)
    assert set(report) == {"command", "results", "toolVersion", "wallTimeMs"}
    assert report["toolVersion"] == __version__
    return report["results"]


class TestEnvelope:
    def test_report_shape_and_echo(self):
        res = run_cli("dynkin", "--type", "A3")
        assert res.exit_code == 0
        report = json.loads(res.stdout)
        assert report["command"]["path"] == "refleq dynkin"
        assert report["command"]["params"] == {"type_name": "A3"}
        assert isinstance(report["wallTimeMs"], int)

    def test_wall_time_of_a_nested_command_covers_its_work(self, monkeypatch):
        # the root group starts the clock once; a subgroup's command reads it
        def slow(kind, l, w1):
            time.sleep(0.05)
            return {"kind": kind}

        monkeypatch.setattr(cli_module, "fixed_locus_report", slow)
        res = run_cli("tableaux", "betti", "--kind", "sp", "--l", "2", "--w1", "1")
        assert res.exit_code == 0, res.output
        assert payload(res) == {"kind": "sp"}
        assert json.loads(res.stdout)["wallTimeMs"] >= 50

    def test_output_is_byte_identical_modulo_wall_time(self):
        def normalized(args):
            res = run_cli(*args)
            assert res.exit_code == 0, res.output
            report = json.loads(res.stdout)
            del report["wallTimeMs"]
            return json.dumps(report, sort_keys=True)

        for args in (
            ("polarization", "summary", "--l", "3"),
            ("polarization", "solve", "--sign", "minus", "--l", "2"),
            ("dynkin", "--type", "A3"),
            ("kclass", "--type", "A2"),
            ("tableaux", "betti", "--kind", "so", "--l", "2", "--w1", "2"),
            ("tableaux", "flags", "--sign", "minus", "--l", "2", "--w1", "4"),
            ("rkmat", "kmatrix", "--kind", "flagMinus", "--l", "2"),
            ("verify", "--scenario", "flagPlus", "--l", "2"),
        ):
            assert normalized(args) == normalized(args), args

    def test_stdout_carries_only_json(self):
        res = run_cli("verify", "--scenario", "spInstanton", "--l", "3")
        json.loads(res.stdout)  # must parse even though the check fails
        assert res.exit_code == 1
        assert "fails" in res.stderr


# stdout of these commands, wallTimeMs removed, as written before the grid
# engine built its grid from a root bound instead of a pole scan; the
# multipoint verdicts were rewritten when the engine came to evaluate the
# cleared sides at one Kronecker point, whose K and size in bits the detail
# names, and the failing one's counterexample gives a monomial and its two
# coefficients in the cleared sides
STDOUT_DIR = Path(__file__).parent / "cli_stdout"
STDOUT_CASES = {
    "verify-suite-all": (["verify", "--suite", "all"], 0),
    **{
        f"verify-{kind}-l2-multipoint": (["verify", "--scenario", kind, "--l", "2", "--mode", "multipoint"], 0)
        for kind in ("spInstanton", "soInstanton", "flagPlus", "flagMinus")
    },
    "verify-spInstanton-l3-multipoint": (
        ["verify", "--scenario", "spInstanton", "--l", "3", "--mode", "multipoint"], 1
    ),
    **{
        f"polarization-solve-{sign}-l{l}": (["polarization", "solve", "--sign", sign, "--l", str(l)], 0)
        for sign in ("plus", "minus")
        for l in range(2, 7)
    },
    # written before the Dynkin data was cached per type, the reflection step
    # rebuilt only the rows it touches and tableaux came from a complement table
    **{f"kclass-{t}": (["kclass", "--type", t], 0) for t in ("A8", "D8", "E6")},
    **{f"dynkin-{t}": (["dynkin", "--type", t], 0) for t in ("D8", "E6")},
    "suite-acceptance": (["suite", "acceptance"], 0),
    # written before the tableau statistics read the row tuples directly
    **{
        f"tableaux-betti-{kind}-l{l}-w{w1}": (
            ["tableaux", "betti", "--kind", kind, "--l", str(l), "--w1", str(w1)], 0
        )
        for kind, l, w1 in (("sp", 5, 5), ("so", 4, 5), ("so", 2, 3))
    },
    "tableaux-flags-minus-l5-w4": (["tableaux", "flags", "--sign", "minus", "--l", "5", "--w1", "4"], 0),
}


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout_is_pinned_byte_for_byte(name):
    args, exit_code = STDOUT_CASES[name]
    res = run_cli(*args)
    assert res.exit_code == exit_code, res.output
    stdout, n = re.subn(r',\n  "wallTimeMs": \d+\n\}\n$', "\n}\n", res.stdout)
    assert n == 1
    assert stdout == (STDOUT_DIR / f"{name}.json").read_text()


# the commands whose verdicts and counterexamples follow the iteration order
# of sets and dicts, with the exit status each must give
HASH_SEED_CASES = {
    "verify-suite-all": (["verify", "--suite", "all"], 0),
    "suite-acceptance": (["suite", "acceptance"], 0),
    "verify-spInstanton-l3-symbolic": (["verify", "--scenario", "spInstanton", "--l", "3"], 1),
    "verify-spInstanton-l3-multipoint": (
        ["verify", "--scenario", "spInstanton", "--l", "3", "--mode", "multipoint"], 1
    ),
}


@pytest.mark.parametrize("name", sorted(HASH_SEED_CASES))
def test_stdout_does_not_depend_on_the_hash_seed(name):
    # each run is a fresh interpreter, since the seed is fixed at start-up
    args, exit_code = HASH_SEED_CASES[name]
    src = Path(cli_module.__file__).parent.parent
    code = "import sys; from refleq.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = []
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
        assert proc.returncode == exit_code, proc.stderr
        stdout, n = re.subn(r',\n  "wallTimeMs": \d+\n\}\n$', "\n}\n", proc.stdout)
        assert n == 1
        outputs.append(stdout)
    assert outputs[0] == outputs[1]


def test_csv_stdout_is_pinned_byte_for_byte():
    # the csv rows carry no envelope and no wall time
    res = run_cli("tableaux", "betti", "--kind", "sp", "--l", "4", "--w1", "2", "--emit", "csv")
    assert res.exit_code == 0, res.output
    assert res.stdout == (STDOUT_DIR / "tableaux-betti-sp-l4-w2-csv.csv").read_text()


class TestDelegation:
    def test_dynkin_matches_library(self):
        res = run_cli("dynkin", "--type", "D4")
        assert payload(res) == info_dict(DynkinType.parse("D4"))

    def test_kclass_matches_library(self):
        res = run_cli("kclass", "--type", "A2")
        got = payload(res)
        assert got["coxeterNumber"] == 3
        assert got["transform"] == w0_summary_dict(DynkinType.parse("A2"))

    def test_betti_matches_library(self):
        res = run_cli("tableaux", "betti", "--kind", "sp", "--l", "3", "--w1", "2")
        got = payload(res)
        assert got == betti_report("sp", 3, 2)

    def test_polarization_summary_matches_library(self):
        res = run_cli("polarization", "summary", "--l", "4")
        assert payload(res) == solve_table(l_values=(2, 3, 4))

    def test_verify_routing(self, monkeypatch):
        calls = {}

        def fake(kind, l, mode="symbolic"):
            calls["args"] = (kind, l, mode)
            return {"holds": True, "identity": "reflection"}

        monkeypatch.setattr(cli_module, "check_reflection", fake)
        res = run_cli("verify", "--scenario", "flagMinus", "--l", "4",
                      "--mode", "multipoint")
        assert res.exit_code == 0
        assert calls["args"] == ("flagMinus", 4, "multipoint")

    def test_suite_routing(self, monkeypatch):
        def fake(progress):
            rep = {"criterion": 1, "title": "stub", "ok": False, "detail": "boom"}
            progress(rep, 0.5, 5.0)
            return {"ok": False, "results": [rep]}

        monkeypatch.setattr(cli_module, "run_acceptance", fake)
        res = run_cli("suite", "acceptance")
        assert res.exit_code == 1
        assert payload(res)["ok"] is False
        assert "FAIL" in res.stderr
        assert "0.500s of 5.0s budget" in res.stderr
        assert "0.5" not in res.stdout


class TestTableaux:
    def test_so_component_example(self):
        res = run_cli("tableaux", "betti", "--kind", "so", "--l", "2", "--w1", "3")
        got = payload(res)
        assert got["components"] == 2
        assert got["sizes"] == [4, 4]

    def test_betti_csv(self):
        res = run_cli("tableaux", "betti", "--kind", "sp", "--l", "4", "--w1", "2",
                      "--emit", "csv")
        assert res.exit_code == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "l,w1,dim,poincare"
        assert len(lines) == 1 + 3 * 3  # l in 2..4 times w1 in 0..2
        assert lines[1] == "2,0,0,1"

    def test_csv_matches_json_rows(self):
        # one content run per l serves every w1; each row is still betti_report's
        for kind in ("sp", "so"):
            for w1_max in (0, 1, 5):
                res = run_cli("tableaux", "betti", "--kind", kind, "--l", "4",
                              "--w1", str(w1_max), "--emit", "csv")
                assert res.exit_code == 0
                lines = res.stdout.splitlines()
                assert lines[0] == "l,w1,dim,poincare"
                assert len(lines) - 1 == 3 * (w1_max + 1)
                cells = [line.split(",") for line in lines[1:]]
                assert [(int(l), int(w1)) for l, w1, _, _ in cells] == [
                    (l, w1) for l in (2, 3, 4) for w1 in range(w1_max + 1)
                ]
                for l, w1, dim, poincare in cells:
                    rep = betti_report(kind, int(l), int(w1))
                    assert (int(dim), poincare) == (rep["dimension"], rep["poincare"])

    def test_flag_points(self):
        res = run_cli("tableaux", "flags", "--sign", "minus", "--l", "5", "--w1", "4")
        got = payload(res)
        assert got["count"] == 25
        assert got["diagnostics"] == []

    def test_flag_diagnostics_on_stderr(self):
        res = run_cli("tableaux", "flags", "--sign", "minus", "--l", "5", "--w1", "1")
        assert res.exit_code == 0
        got = payload(res)
        assert got["count"] == 0
        assert got["diagnostics"]
        assert "even" in res.stderr


    def test_oversized_flags_rejected(self):
        start = time.perf_counter()
        res = run_cli("tableaux", "flags", "--sign", "minus", "--l", "9", "--w1", "30")
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "9^15 = 205891132094649 candidate tableaux" in res.stderr

    @pytest.mark.parametrize(
        "sizes,message",
        [
            (("--l", "-3", "--w1", "2"), "need at least two entry values"),
            (("--l", "0", "--w1", "0"), "need at least two entry values"),
            (("--l", "3", "--w1", "-1"), "w1 must be non-negative, got -1"),
        ],
    )
    def test_flags_reject_bad_sizes(self, sizes, message):
        # the size rule of tableaux betti: l >= 2 and w1 >= 0
        for sign in ("plus", "minus"):
            res = run_cli("tableaux", "flags", "--sign", sign, *sizes)
            assert res.exit_code == 2, (sign, sizes)
            assert res.stdout == ""
            assert message in res.stderr

    def test_betti_rejects_bad_sizes(self):
        # the CSV table rejects what the JSON report rejects, with its message
        for flag, value in (("--l", "1"), ("--w1", "-1"), ("--l", "0")):
            args = {"--l": "3", "--w1": "2", flag: value}
            sizes = [x for kv in args.items() for x in kv]
            res = run_cli("tableaux", "betti", "--kind", "sp", *sizes)
            assert res.exit_code == 2, (flag, value)
            for kind in ("sp", "so"):
                csv_res = run_cli("tableaux", "betti", "--kind", kind, *sizes, "--emit", "csv")
                assert csv_res.exit_code == 2, (kind, flag, value)
                assert csv_res.output == res.output
                assert "l,w1,dim,poincare" not in csv_res.output

    def test_so_betti_runs_each_statistic_once(self, monkeypatch):
        # one charge evaluation per small tableau: the so series, read by
        # both the Poincare polynomial and the zero-charge count, is built
        # once, and its tables are kept, so a second report at (so, 3)
        # evaluates nothing
        calls = []
        original = tableaux_module.charge_pair_counts

        def counting(t):
            calls.append(t)
            return original(t)

        tableaux_module._row_pair_tables.cache_clear()
        tableaux_module._small_tableaux.cache_clear()
        monkeypatch.setattr(tableaux_module, "charge_pair_counts", counting)
        res = run_cli("tableaux", "betti", "--kind", "so", "--l", "3", "--w1", "4")
        assert payload(res)["zeroChargeCount"] == 4  # 3211, 3111, 2111, 1111
        assert len(calls) == 3 + 3 * 3
        calls.clear()
        res = run_cli("tableaux", "betti", "--kind", "so", "--l", "3", "--w1", "2")
        assert payload(res)["zeroChargeCount"] == 4  # 11, 21, 31, 32
        assert calls == []


class TestRkmat:
    def test_anti_identity_table(self):
        res = run_cli("rkmat", "kmatrix", "--kind", "flagPlus", "--l", "4")
        got = payload(res)
        assert got["labels"] == [1, 2, 3, 4]
        cells = {(e["row"], e["col"]): e["value"] for e in got["entries"]}
        assert cells == {(1, 4): "1", (2, 3): "1", (3, 2): "1", (4, 1): "1"}

    def test_flag_minus_entries_are_rational(self):
        res = run_cli("rkmat", "kmatrix", "--kind", "flagMinus", "--l", "2")
        cells = {(e["row"], e["col"]): e["value"] for e in payload(res)["entries"]}
        assert cells[(1, 1)] == "h / (2*u + h)"
        assert cells[(2, 1)] == "2*u / (2*u + h)"


class TestVerify:
    def test_single_scenario_holds(self):
        res = run_cli("verify", "--scenario", "flagPlus", "--l", "2")
        assert res.exit_code == 0
        assert payload(res)["holds"] is True

    def test_single_scenario_failure_exit(self):
        res = run_cli("verify", "--scenario", "spInstanton", "--l", "3")
        assert res.exit_code == 1
        assert payload(res)["holds"] is False

    def test_fast_suite_end_to_end(self):
        res = run_cli("verify", "--suite", "unitarity", "--l", "2")
        assert res.exit_code == 0
        got = payload(res)
        assert got["ok"] is True
        assert all(v["holds"] == v["expected"] for v in got["verdicts"]
                   if v["expected"] is not None)

    def test_usage_errors(self):
        assert run_cli("verify").exit_code == 2
        assert run_cli("verify", "--scenario", "flagPlus", "--suite", "all").exit_code == 2
        assert run_cli("verify", "--scenario", "flagPlus").exit_code == 2
        assert run_cli("verify", "--suite", "nonsense").exit_code == 2

    def test_explicit_l_runs_the_group_at_that_size(self):
        res = run_cli("verify", "--suite", "exchange", "--l", "3")
        assert res.exit_code == 0
        verdicts = payload(res)["verdicts"]
        assert len(verdicts) == 36 and all(v["holds"] and v["l"] == 3 for v in verdicts)

    def test_no_cap_below_the_dimension_bound(self):
        for mode in ("symbolic", "multipoint"):
            res = run_cli("verify", "--scenario", "flagMinus", "--l", "6", "--mode", mode)
            assert res.exit_code == 0, mode
            assert payload(res)["holds"] is True and payload(res)["mode"] == mode
        res = run_cli("verify", "--suite", "ybe", "--l", "6")
        assert res.exit_code == 0
        assert [(v["holds"], v["mode"]) for v in payload(res)["verdicts"]] == [(True, "symbolic")]

    @pytest.mark.parametrize("group, l, item, size", [
        ("all", "5", "monodromyExchange (l=5, kind=spInstanton, variant=plainPlain, sites=2)", "625 > 256"),
        ("exchange", "6", "monodromyExchange (l=6, kind=spInstanton, variant=plainPlain, sites=2)", "1296 > 256"),
        ("boundary", "7", "chainReflection (l=7, kind=spInstanton, sites=1)", "343 > 256"),
    ], ids=["all-l5", "exchange-l6", "boundary-l7"])
    def test_oversized_suite_rejected_before_any_check(self, group, l, item, size):
        res = run_cli("verify", "--suite", group, "--l", l)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"{item}: tensor dimension {size}" in res.stderr

    @pytest.mark.parametrize("group", ["all", "ybe", "unitarity", "reflection", "exchange", "boundary"])
    def test_suite_rejects_multipoint(self, group):
        res = run_cli("verify", "--suite", group, "--l", "2", "--mode", "multipoint")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--mode multipoint" in res.stderr

    @pytest.mark.parametrize("args", [
        ("verify", "--scenario", "flagPlus", "--l", "0"),
        ("verify", "--scenario", "flagPlus", "--l", "1"),
        ("verify", "--suite", "all", "--l", "0"),
        ("verify", "--suite", "unitarity", "--l", "1"),
        ("rkmat", "kmatrix", "--kind", "flagPlus", "--l", "-2"),
        ("polarization", "summary", "--l", "1"),
    ])
    def test_l_below_two_rejected(self, args):
        res = run_cli(*args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "is not in the range x>=2" in res.stderr


class TestPolarization:
    def test_solve_sat(self):
        res = run_cli("polarization", "solve", "--sign", "minus", "--l", "2")
        got = payload(res)
        assert got["verdict"] == "SAT"
        assert got["certificate"] is None
        assert len(got["witness"]) == 12  # 4 points x 3 pairs

    def test_solve_unsat_certificate_replays(self):
        res = run_cli("polarization", "solve", "--sign", "minus", "--l", "3")
        assert res.exit_code == 0
        got = payload(res)
        assert got["verdict"] == "UNSAT"
        assert got["witness"] is None
        assert replay_certificate(build_instance("-", 3), got["certificate"])

    def test_bad_size_is_usage_error(self):
        assert run_cli("polarization", "solve", "--sign", "plus", "--l", "1").exit_code == 2


class TestUsage:
    def test_unknown_type_flag(self):
        res = run_cli("dynkin", "--type", "Z9")
        assert res.exit_code == 2
        assert "--type" in res.stderr

    def test_unknown_subcommand(self):
        assert run_cli("nonsense").exit_code == 2

    @pytest.mark.parametrize("path, args, unknown", [
        (("tableaux", "betti"), ("--kind", "sp", "--l", "2", "--w1", "1", "--typ", "A3"), "--typ A3"),
        (("verify",), ("--suite", "all", "--l", "2", "--jobs", "2"), "--jobs 2"),
    ], ids=["tableaux betti", "verify"])
    def test_unknown_option_names_its_command(self, path, args, unknown):
        res = run_cli(*path, *args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith(f"usage: refleq {' '.join(path)} ")
        assert f"unrecognized arguments: {unknown}" in res.stderr

    def test_version_flag(self):
        res = run_cli("--version")
        assert res.exit_code == 0
        assert __version__ in res.stdout
        assert res.stdout == f"refleq, version {__version__}\n"

    # every command, with the options its --help must name
    COMMANDS = {
        ("dynkin",): ["--type"],
        ("kclass",): ["--type"],
        ("tableaux", "betti"): ["--kind", "--l", "--w1", "--emit"],
        ("tableaux", "flags"): ["--sign", "--l", "--w1"],
        ("rkmat", "kmatrix"): ["--kind", "--l"],
        ("verify",): ["--scenario", "--suite", "--l", "--mode"],
        ("polarization", "solve"): ["--sign", "--l"],
        ("polarization", "summary"): ["--l"],
        ("suite",): ["acceptance"],
    }

    @pytest.mark.parametrize("path", sorted(COMMANDS), ids=" ".join)
    def test_help_names_every_option(self, path):
        res = run_cli(*path, "--help")
        assert res.exit_code == 0, res.output
        assert res.stderr == ""
        assert res.stdout.startswith(f"usage: refleq {' '.join(path)} ")
        for option in self.COMMANDS[path]:
            assert option in res.stdout, option

    def test_help_lists_every_command(self):
        # the table above covers every command the parser has
        groups = {}
        for path in self.COMMANDS:
            for i, name in enumerate(path):
                groups.setdefault(path[:i], set()).add(name)
        for group, names in groups.items():
            res = run_cli(*group, "--help")
            assert res.exit_code == 0
            listed = set(re.findall(r"^    (\S+)", res.stdout, re.M))
            assert listed == names, group


def test_import_loads_the_library_and_no_heavy_stdlib():
    # a fresh interpreter, so nothing the test session imported counts; it
    # also runs the default suite, whose proofs and constants are ints
    # throughout: Fraction enters only with a caller's Fraction or
    # RatFunc.eval, and csv only with --emit csv
    src = Path(cli_module.__file__).parent
    code = (
        "import json, sys, refleq.cli; from refleq.relations import run_suite; "
        "assert run_suite('all')['ok']; print(json.dumps(sorted(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"click", "dataclasses", "inspect", "fractions", "decimal", "numbers", "csv"}
    library = {"refleq", *(f"refleq.{p.stem}" for p in src.glob("*.py") if p.stem != "__init__")}
    assert library <= loaded, library - loaded

