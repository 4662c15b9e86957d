"""The byte-identity contract as a test: each argv of the corpus in
tests/golden/ is re-run in process, and its stdout (without the "timing"
line), its stderr and its exit code must equal the recorded ones byte for
byte.  tests/make_golden.py regenerates the corpus and explains its
layout.

The corpus is checked as well: every recorded table that a closed form
of the paper covers is compared with that form, cell by cell, so the
corpus cannot freeze a wrong table.  The forms are written in plain
Python, here and in tests/series.py, apart from the package.  A --format
csv case is checked against its JSON twin, the case with the same argv
but the format, row by row."""

import json
import shutil
from math import comb

import make_golden
import pytest
from make_golden import CASES as ARGVS
from make_golden import GOLDEN, run, strip_timing
from series import ci_series, sk_weights

CASES = json.loads((GOLDEN / "cases.json").read_text())


def json_argv(argv):
    """argv without its "--format csv", or None if it has none."""
    for i in range(len(argv) - 1):
        if argv[i:i + 2] == ["--format", "csv"]:
            return argv[:i] + argv[i + 2:]
    return None


CSV_CASES = [name for name in CASES if json_argv(CASES[name]["argv"])]
JSON_CASES = [name for name in CASES if name not in CSV_CASES]

# (case, table) pairs that no closed form covers: k > n on the Fock
# route, and the q quotient at k < n, where q_1..q_n is not regular
UNCOVERED = {
    ("pages-n2k3", "Einf part=full r=8"),
    ("pages-n2k3", "graded cohomology part=full"),
    ("e1-n2k3", "E1 part=full"),
    ("e1-plus-n2k3", "E1 part=plus"),
    ("cohom-n2k3", "cohomology part=full ell=0"),
    ("cohom-n2k3", "cohomology part=full ell=1"),
    ("cohom-n2k3", "cohomology part=full ell=2"),
    ("koszul-q-n3k2", "quotient dims model=q"),
}


@pytest.mark.parametrize("name", CASES)
def test_golden_document(name):
    case = CASES[name]
    code, out, err = run(case["argv"])
    assert code == case["exit"]
    assert err == (GOLDEN / (name + ".err")).read_text()
    assert strip_timing(out) == (GOLDEN / (name + ".out")).read_text()


def test_corpus_matches_its_generator():
    # a case edited in make_golden.py but not regenerated, or a file
    # left behind by a dropped case, fails here
    assert [(name, case["argv"]) for name, case in CASES.items()] == \
        list(ARGVS.items())
    assert {path.name for path in GOLDEN.iterdir()} == {"cases.json"} | {
        name + ext for name in CASES for ext in (".out", ".err")}


def corpus_copy(tmp_path, monkeypatch):
    """A copy of the corpus that make_golden writes to instead."""
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy)
    monkeypatch.setattr(make_golden, "GOLDEN", copy)
    return copy


def read_files(path):
    return {entry.name: entry.read_bytes() for entry in path.iterdir()}


def test_named_cases_rewrite_only_their_files(tmp_path, monkeypatch):
    # the named cases are dropped from the copy and one other file is
    # made stale: the script records the named cases again, puts their
    # entries back in CASES order, and leaves the stale file as it is
    copy = corpus_copy(tmp_path, monkeypatch)
    named = ["usage-error", "e1-plus-below-k"]
    index = json.loads((copy / "cases.json").read_text())
    for name in named:
        del index[name]
        for ext in (".out", ".err"):
            (copy / (name + ext)).unlink()
    (copy / "cases.json").write_text(json.dumps(index, indent=2) + "\n")
    (copy / "pages-n3k1.out").write_text("stale\n")
    assert make_golden.script(named) == 0
    want = read_files(GOLDEN)
    want["pages-n3k1.out"] = b"stale\n"
    assert read_files(copy) == want


def test_unknown_case_id_writes_nothing(tmp_path, monkeypatch, capsys):
    copy = corpus_copy(tmp_path, monkeypatch)
    (copy / "e1-plus-below-k.out").write_text("stale\n")
    before = read_files(copy)
    assert make_golden.script(["e1-plus-below-k", "bogus"]) == 2
    assert read_files(copy) == before
    assert capsys.readouterr().err == \
        "make_golden: unknown case id: bogus\n"


def test_no_ids_record_every_case(tmp_path, monkeypatch):
    # every case is run and written into a fresh directory, in CASES
    # order; the runs are replaced by a stand-in that echoes the argv
    copy = tmp_path / "fresh"
    monkeypatch.setattr(make_golden, "GOLDEN", copy)
    monkeypatch.setattr(make_golden, "run", lambda argv: (
        len(argv), " ".join(argv) + "\n", argv[0] + "\n"))
    assert make_golden.script([]) == 0
    index = json.loads((copy / "cases.json").read_text())
    assert list(index.items()) == [
        (name, {"argv": argv, "exit": len(argv)})
        for name, argv in ARGVS.items()]
    for name, argv in ARGVS.items():
        assert (copy / (name + ".out")).read_text() == " ".join(argv) + "\n"
        assert (copy / (name + ".err")).read_text() == argv[0] + "\n"


def cohomology_form(n, k, part, window):
    """{(ell, degree): dim} for k <= n at every level through the window:
    the +1 part is comb(j + k(k+1)/2 - 1, j) at level k and degree k + 2j,
    the -1 part the series of S_k/(c_1..c_k) at level n, and every other
    cell 0 (for k = n both series sit on level n)."""
    cells = {(ell, t): 0 for ell in range(n + 1) for t in range(window + 1)}
    if part != "minus":
        for j in range((window - k) // 2 + 1):
            cells[k, k + 2 * j] += comb(j + k * (k + 1) // 2 - 1, j)
    if part != "plus":
        for t, dim in enumerate(ci_series(sk_weights(k), (3,) * k, window)):
            cells[n, t] += dim
    return cells


def quotient_form(n, k, model):
    """(weights, relation degrees) of the quotient a koszul model names,
    or None for q at k < n."""
    if model in ("c", "cminus"):
        return sk_weights(k), (3,) * k
    if model in ("w", "rk"):
        return sk_weights(k), (1,) * k
    if model == "sk":
        return sk_weights(k), ()
    if k < n:
        return None
    return (1,) * (n * k + k), (2,) * n


def closed_form(params, table):
    """{(ell, degree): dim} over every cell the table can hold, or None
    when no closed form covers it."""
    n, k, window = params["n"], params["k"], params["max_degree"]
    command = params["command"]
    if command in ("cohom", "e1", "pages"):
        if k > n:
            return None
        cells = cohomology_form(n, k, params["part"], window)
        if command == "cohom":
            ell = int(table["name"].rsplit("ell=", 1)[1])
            cells = {key: dim for key, dim in cells.items() if key[0] == ell}
        return cells
    form = quotient_form(n, k, params["model"])
    if form is None:
        return None
    # koszul puts its table on the level of the sequence's length,
    # hilbert on level 0
    ell = len(form[1]) if command == "koszul" else 0
    return {(ell, t): dim for t, dim in enumerate(ci_series(*form, window))}


@pytest.mark.parametrize("name", CSV_CASES)
def test_csv_rows_equal_the_json_tables(name):
    twin = next(other for other in JSON_CASES
                if CASES[other]["argv"] == json_argv(CASES[name]["argv"]))
    doc = json.loads((GOLDEN / (twin + ".out")).read_text())
    want = ["table,ell,degree,dim,stabilized"] + [
        "%s,%d,%d,%d,%s" % (table["name"].replace(",", ";"), c["ell"],
                            c["degree"], c["dim"],
                            str(c["stabilized"]).lower())
        for table in doc["tables"] for c in table["cells"]]
    assert CASES[name]["exit"] == CASES[twin]["exit"]
    assert (GOLDEN / (name + ".out")).read_text().splitlines() == want


@pytest.mark.parametrize("name", JSON_CASES)
def test_corpus_tables_equal_the_closed_forms(name):
    text = (GOLDEN / (name + ".out")).read_text()
    doc = json.loads(text) if text else {"tables": []}
    for table in doc["tables"]:
        want = closed_form(doc["params"], table)
        if (name, table["name"]) in UNCOVERED:
            assert want is None, table["name"]
            continue
        assert want is not None, "cover or list %s" % table["name"]
        got = {(c["ell"], c["degree"]): c["dim"] for c in table["cells"]}
        # every cell shown is right, and no nonzero cell is missing (the
        # pages show their nonzero cells only)
        assert got == {key: want.get(key) for key in got}, table["name"]
        assert {key for key, dim in want.items() if dim} <= set(got), \
            table["name"]


def test_uncovered_tables_are_in_the_corpus():
    recorded = set()
    for name in JSON_CASES:
        text = (GOLDEN / (name + ".out")).read_text()
        if text:
            recorded.update((name, t["name"])
                            for t in json.loads(text)["tables"])
    assert UNCOVERED <= recorded
