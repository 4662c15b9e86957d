"""Tests for the command-line front end: schemas, formats, exit codes,
determinism, and the argument parsing (help, the console script, and the
table-driven reading that leaves argparse out of well-formed calls)."""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import make_golden
import pytest
from series import ci_series, sk_weights

from weilcoh import cli, spectral
from weilcoh.cli import COMMANDS, HILBERT_MODELS, main
from weilcoh.koszul import regular_sequence_check
from weilcoh.linalg import DEFAULT_MAX_ENTRIES, MAX_ENTRIES
from weilcoh.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_timing(text):
    return "\n".join(line for line in text.splitlines()
                     if '"timing"' not in line)


def test_cohom_json_schema_and_values(capsys):
    code, out = run_cli(
        capsys, "cohom", "--n", "3", "--k", "1", "--part", "plus",
        "--ell", "1", "--max-degree", "6", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "weilcoh/1"
    assert doc["command"] == "cohom"
    assert doc["params"]["n"] == 3 and doc["params"]["part"] == "plus"
    (table,) = doc["tables"]
    dims = {c["degree"]: c["dim"] for c in table["cells"]}
    assert dims == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0}
    assert all(c["stabilized"] for c in table["cells"])
    assert isinstance(doc["timing"], float)


def test_cohom_ell_range(capsys):
    code, out = run_cli(
        capsys, "cohom", "--n", "2", "--k", "1", "--part", "minus",
        "--ell", "0..2", "--max-degree", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert [t["name"] for t in doc["tables"]] == [
        "cohomology part=minus ell=%d" % ell for ell in range(3)
    ]


def test_hilbert_cminus_example(capsys):
    code, out = run_cli(capsys, "hilbert", "--model", "cminus", "--k", "1",
                        "--max-degree", "6")
    assert code == 0
    doc = json.loads(out)
    cells = doc["tables"][0]["cells"]
    assert [c["dim"] for c in cells] == [1, 1, 2, 1, 2, 1, 2]


def _hilbert_series(args):
    """Named Hilbert-series models.

    cminus  S_k/(c_1..c_k)
    aquot   P_k/(q_1..q_n)  (free z,w variables modulo the n quadrics)
    rk      the free ring R_k on the k(k+1)/2 quadratic generators
    sk      the free ring S_k
    """
    k, D = args.k, args.max_degree
    if args.model == "cminus":
        return ci_series(sk_weights(k), (3,) * k, D)
    if args.model == "aquot":
        n = args.n
        return ci_series((1,) * (n * k + k), (2,) * n, D)
    if args.model == "rk":
        return ci_series((2,) * (k * (k + 1) // 2), (), D)
    if args.model == "sk":
        return ci_series(sk_weights(k), (), D)
    raise ValueError("unknown hilbert model %r" % args.model)


@pytest.mark.parametrize("model", ["cminus", "aquot", "rk", "sk"])
def test_hilbert_models_match_the_hand_typed_degrees(capsys, model):
    # the oracle types each model's generator and relation degrees by
    # hand; the CLI reads them off the named Koszul sequences
    for n in range(1, 5):
        for k in range(1, 5):
            code, out = run_cli(capsys, "hilbert", "--model", model,
                                "--n", str(n), "--k", str(k),
                                "--max-degree", "12")
            if model == "aquot" and k < n:
                # q_1..q_n is not regular there: no closed form to print
                assert (code, out) == (2, ""), (n, k)
                continue
            assert code == 0
            cells = json.loads(out)["tables"][0]["cells"]
            want = _hilbert_series(SimpleNamespace(
                model=model, n=n, k=k, max_degree=12))
            assert [c["dim"] for c in cells] == want, (n, k)
            assert [c["degree"] for c in cells] == list(range(13))


def test_hilbert_quotients_match_the_koszul_tables(capsys):
    # each quotient model the hilbert command accepts prints the quotient
    # table that koszul eliminates for its sequence
    for model, (seq, quotient) in HILBERT_MODELS.items():
        if not quotient:
            continue
        for n in range(1, 5):
            for k in range(1, 5):
                if model == "aquot" and k < n:
                    continue
                dims = []
                for cmd, m in (("hilbert", model), ("koszul", seq)):
                    code, out = run_cli(capsys, cmd, "--model", m,
                                        "--n", str(n), "--k", str(k),
                                        "--max-degree", "6")
                    assert code == 0, (cmd, n, k)
                    dims.append([c["dim"] for c in
                                 json.loads(out)["tables"][-1]["cells"]])
                assert dims[0] == dims[1], (model, n, k)


def test_hilbert_aquot_refuses_k_below_n(capsys):
    # at (3, 1) the complete-intersection series would read 1, 4, 7, 8,
    # 8, ..., but the quotient has dims 1, 4, 7, 11, 16, 22, 29
    code = main(["hilbert", "--model", "aquot", "--n", "3", "--k", "1",
                 "--max-degree", "6"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and "koszul --model q" in err
    code, out = run_cli(capsys, "koszul", "--model", "q", "--n", "3",
                        "--k", "1", "--max-degree", "6")
    assert [c["dim"] for c in json.loads(out)["tables"][0]["cells"]] == \
        [1, 4, 7, 11, 16, 22, 29]


def test_csv_projection(capsys):
    code, out = run_cli(capsys, "hilbert", "--model", "cminus", "--k", "1",
                        "--max-degree", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "table,ell,degree,dim,stabilized"
    assert lines[1].endswith(",0,0,1,true")
    assert len(lines) == 5


def test_verify_signs_passes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "signs", "--seed", "7",
                        "--n", "4", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"] and all(v["pass"] for v in doc["verdicts"])


def test_verify_all_joins_the_single_suites(capsys):
    # each suite seeds its own generator, so within --suite all it gives
    # the verdicts it gives alone, and the run joins them in SUITES order
    common = ("--n", "2", "--k", "2", "--seed", "3")
    code, out = run_cli(capsys, "verify", "--suite", "all", *common)
    assert code == 0
    joined = []
    for name in SUITES:
        code, single = run_cli(capsys, "verify", "--suite", name, *common)
        assert code == 0
        joined.extend(json.loads(single)["verdicts"])
    assert json.loads(out)["verdicts"] == joined


def test_pages_verdict(capsys):
    code, out = run_cli(capsys, "pages", "--n", "2", "--k", "2",
                        "--max-degree", "2")
    assert code == 0
    doc = json.loads(out)
    (verdict,) = doc["verdicts"]
    assert verdict["pass"]
    names = [t["name"] for t in doc["tables"]]
    assert len(names) == 2


def test_failed_verdict_exits_one(capsys):
    # the q's are not a regular sequence when k < n
    code, out = run_cli(capsys, "koszul", "--model", "q", "--n", "3",
                        "--k", "1", "--max-degree", "4")
    assert code == 1
    doc = json.loads(out)
    assert any(not v["pass"] for v in doc["verdicts"])
    # the document is still emitted, tables included
    assert doc["tables"]


def test_failed_e1_certificate_exits_one_with_a_document(capsys,
                                                         monkeypatch):
    # k < n: a failed regularity certificate of the w or c table is a
    # failed verdict naming the model and the failure degrees, with a
    # weilcoh/1 document and no table, not a traceback
    def failing(spec, hilb):
        cert = regular_sequence_check(spec, hilb)
        cert.failure_degree[-1] = 5
        return cert

    monkeypatch.setattr(spectral, "regular_sequence_check", failing)
    for part, model, window in (("plus", "w", 4), ("minus", "c", 6),
                                ("full", "w", 4)):
        code, out = run_cli(capsys, "e1", "--n", "3", "--k", "2", "--part",
                            part, "--max-degree", "6")
        assert code == 1
        doc = json.loads(out)
        assert doc["schema"] == "weilcoh/1" and doc["tables"] == []
        assert doc["verdicts"] == [{
            "name": "regular sequence model=%s through degree %d"
            % (model, window),
            "pass": False,
            "detail": "failure degrees [5]",
        }]


def test_invalid_arguments_exit_two(capsys):
    assert run_cli(capsys, "cohom", "--n", "99")[0] == 2
    assert run_cli(capsys, "cohom", "--n", "2", "--ell", "5")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("ell", ["x", "1..y", "2..", "1..2..3"])
def test_ell_that_is_not_a_level_names_the_option(capsys, ell):
    code = main(["cohom", "--n", "3", "--ell", ell])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == \
        "error: --ell must be a level or a range a..b: %s\n" % ell


# --ell at n = 2 -> its error
ELL_ERRORS = {
    "2..1": "--ell range a..b needs a <= b: 2..1",
    "5..0": "--ell range a..b needs a <= b: 5..0",
    "1..3": "--ell out of range 0..2: 1..3",
    "3": "--ell out of range 0..2: 3",
}


@pytest.mark.parametrize("ell", ELL_ERRORS)
def test_ell_reversed_or_out_of_range(capsys, ell):
    # a reversed range is named as such, even when both ends are levels
    code = main(["cohom", "--n", "2", "--ell", ell])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s\n" % ELL_ERRORS[ell]


# one capped call of every subcommand that eliminates: id -> (argv, cap)
ELIMINATING = {
    "cohom": (("cohom", "--n", "3", "--k", "2", "--part", "minus",
               "--ell", "0..3", "--max-degree", "4"), 5),
    "cohom-ell2": (("cohom", "--n", "3", "--k", "2", "--ell", "2",
                    "--max-degree", "6"), 50),
    "e1-model": (("e1", "--n", "3", "--k", "2", "--max-degree", "4"), 5),
    "e1-model-d8": (("e1", "--n", "3", "--k", "2", "--max-degree", "8"), 5),
    "e1-fock": (("e1", "--n", "2", "--k", "3", "--max-degree", "4"), 5),
    "pages": (("pages", "--n", "2", "--k", "2", "--max-degree", "2"), 5),
    "koszul-q": (("koszul", "--model", "q", "--n", "2", "--k", "2",
                  "--max-degree", "4"), 5),
    "koszul-q-n3k3": (("koszul", "--model", "q", "--n", "3", "--k", "3",
                       "--max-degree", "7"), 5),
    "koszul-c": (("koszul", "--model", "c", "--k", "3", "--max-degree",
                  "6"), 5),
    "verify-bases": (("verify", "--suite", "bases", "--n", "3", "--k",
                      "2"), 5),
}


@pytest.mark.parametrize("argv,cap", ELIMINATING.values(), ids=ELIMINATING)
def test_every_eliminating_command_is_capped(capsys, argv, cap):
    code, out = run_cli(capsys, *argv, "--max-entries", str(cap))
    assert code == 3
    (verdict,) = json.loads(out)["verdicts"]
    assert verdict["name"] == "resource cap" and not verdict["pass"]
    assert "cap" in verdict["detail"]
    assert MAX_ENTRIES.get() == DEFAULT_MAX_ENTRIES


def test_capped_model_e1_emits_no_table(capsys):
    # k < n: the cap stops the Koszul prefix table of c, before any
    # table of the page is written; the entry count is not pinned
    code, out = run_cli(capsys, "e1", "--n", "5", "--k", "4",
                        "--max-degree", "7", "--max-entries", "100")
    assert code == 3
    doc = json.loads(out)
    assert doc["tables"] == []
    (verdict,) = doc["verdicts"]
    assert verdict["name"] == "resource cap" and not verdict["pass"]
    assert "cap" in verdict["detail"]


def test_cap_does_not_outlive_the_call(capsys):
    argv = ("cohom", "--n", "2", "--k", "1", "--ell", "1",
            "--max-degree", "3")
    assert run_cli(capsys, *argv, "--max-entries", "5")[0] == 3
    assert MAX_ENTRIES.get() == DEFAULT_MAX_ENTRIES
    assert run_cli(capsys, *argv)[0] == 0


def test_environment_sets_no_cap(capsys, monkeypatch):
    # the cap is --max-entries or entry_cap, never a variable of the
    # environment
    monkeypatch.setenv("WEILCOH_MAX_ENTRIES", "5")
    assert run_cli(capsys, "cohom", "--n", "3", "--k", "2", "--part",
                   "minus", "--ell", "3", "--max-degree", "3")[0] == 0


def test_determinism_modulo_timing(capsys):
    argv = ["verify", "--suite", "closedness", "--seed", "11", "--n", "2",
            "--k", "2"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 != out2  # the timing field moved
    assert strip_timing(out1) == strip_timing(out2)


def _module_state():
    """Length of every module-level dict, list and set in weilcoh.*."""
    return {
        (mod_name, name): len(value)
        for mod_name, mod in sys.modules.items()
        if mod_name == "weilcoh" or mod_name.startswith("weilcoh.")
        for name, value in vars(mod).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_calls_leave_no_module_state(capsys):
    # a CLI call inside a process must leave no cache or other global
    # state behind for the next call
    before = _module_state()
    assert before
    for argv in (["pages", "--n", "2", "--k", "2", "--max-degree", "1"],
                 ["verify", "--suite", "bases", "--n", "3", "--k", "2"],
                 ["koszul", "--model", "q", "--n", "2", "--k", "2",
                  "--max-degree", "4"],
                 ["e1", "--n", "3", "--k", "2", "--max-degree", "4"]):
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        assert _module_state() == before, argv


def _exit_code(call, *args):
    with pytest.raises(SystemExit) as exc:
        call(*args)
    return exc.value.code


def test_help_lists_every_command(capsys):
    assert _exit_code(main, ["--help"]) == 0
    out = capsys.readouterr().out
    assert tuple(COMMANDS) == ("cohom", "e1", "pages", "koszul", "hilbert",
                               "verify")
    for name, (text, _, _) in COMMANDS.items():
        assert "\n    %s " % name in out and text in out, name


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_names_every_flag(capsys, command):
    assert _exit_code(main, [command, "--help"]) == 0
    out = capsys.readouterr().out
    for flag, *_ in COMMANDS[command][2]:
        assert "\n  %s " % flag in out, flag


GOLDEN_CASES = json.loads((make_golden.GOLDEN / "cases.json").read_text())


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    # the weilcoh console script calls main() with no argv
    case = GOLDEN_CASES["cohom-minus-n3k2"]
    monkeypatch.setattr(sys, "argv", ["weilcoh"] + case["argv"])
    assert main() == case["exit"] == 0
    assert make_golden.strip_timing(capsys.readouterr().out) == \
        (make_golden.GOLDEN / "cohom-minus-n3k2.out").read_text()
    monkeypatch.setattr(sys, "argv", ["weilcoh", "--help"])
    assert _exit_code(main) == 0
    assert "{cohom,e1,pages,koszul,hilbert,verify}" in \
        capsys.readouterr().out


# the golden case that abbreviates a flag, which only argparse reads
ABBREVIATED = "abbrev-flag"
# golden argvs that emit a document and that _parse reads alone
FAST_GOLDEN = [case["argv"] for name, case in GOLDEN_CASES.items()
               if case["exit"] in (0, 1, 3) and name != ABBREVIATED]
# lines _parse reads: repeated flags (the last wins), defaults only
FAST_EXTRA = [
    ["cohom", "--n", "3", "--n", "4", "--ell", "1", "--ell", "0..2"],
    ["verify", "--suite", "signs", "--seed", "5", "--suite", "bases"],
    ["koszul", "--model", "c", "--model", "w", "--max-entries", "9"],
] + [[name] for name in COMMANDS]
# lines _parse leaves to argparse, each of them accepted or refused there
SLOW = [
    GOLDEN_CASES[ABBREVIATED]["argv"],
    ["koszul", "--mod", "c"],
    ["cohom", "--n=3", "--k", "2"],
    ["-h"],
    ["e1", "-h"],
    ["pages", "--help"],
    ["cohom", "--n", "-3"],
    ["cohom", "--ell", "-1"],
    ["cohom", "--n", "3", "--k"],
    ["cohom", "3"],
    ["cohom", "--n", "x"],
    ["e1", "--part", "bogus"],
    ["hilbert", "--model", "q"],
    ["verify", "--ell", "1"],
    ["--n", "3", "cohom"],
    [],
] + [case["argv"] for case in GOLDEN_CASES.values() if case["exit"] == 2]


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None if it refuses."""
    try:
        return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


@pytest.mark.parametrize("argv", FAST_GOLDEN + FAST_EXTRA + SLOW,
                         ids=" ".join)
def test_parse_agrees_with_argparse(capsys, argv):
    fast = cli._parse(argv)
    assert (fast is None) == (argv in SLOW)
    if fast is not None:
        assert vars(fast) == _argparse_vars(argv)


def test_well_formed_calls_never_import_argparse():
    # every golden document of a subcommand is written without argparse,
    # in a fresh interpreter
    assert {argv[0] for argv in FAST_GOLDEN} == set(COMMANDS)
    script = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from weilcoh.cli import main\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) in (0, 1, 3), argv\n"
        "print('argparse' in sys.modules)\n"
    )
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script, str(src), json.dumps(FAST_GOLDEN)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
