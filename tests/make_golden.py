"""Regenerate the byte-identity corpus in tests/golden/.

For each argv of CASES the command line is run in process, as
tests/test_golden.py runs it, and three things are kept:

    golden/<id>.out   stdout without the "timing" line (the weilcoh/1
                      document or its CSV projection, or nothing for a
                      usage error)
    golden/<id>.err   the stderr text
    golden/cases.json {id: {"argv": [...], "exit": code}}

Run from the repository root:

    PYTHONPATH=src python3 tests/make_golden.py            # every case
    PYTHONPATH=src python3 tests/make_golden.py <id>...    # these cases

With ids, only those cases are run and only their .out and .err files
are written; cases.json is rewritten in CASES order with every other
entry kept as recorded, so a new case can be recorded on the code before
a change without touching the rest of the corpus.  An id that is not in
CASES exits 2 and writes nothing.  A change that alters a document on
purpose regenerates the corpus with this script and names the changed
cells, and why, in CHANGES.md.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from weilcoh.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _args(text):
    return text.split()


CASES = {
    # the four benchmark workloads
    "cohom-minus-n3k2": _args(
        "cohom --n 3 --k 2 --part minus --ell 3 --max-degree 3"),
    "pages-full-n2k2": _args("pages --n 2 --k 2 --max-degree 2"),
    "e1-full-n3k2": _args("e1 --n 3 --k 2 --part full --max-degree 8"),
    "koszul-q-n3k3": _args("koszul --model q --n 3 --k 3 --max-degree 7"),
    # the CSV projection of the e1 workload's document
    "e1-full-n3k2-csv": _args("e1 --n 3 --k 2 --part full --max-degree 8 "
                              "--format csv"),
    # direct cohomology
    "cohom-n3k3": _args("cohom --n 3 --k 3 --part full --ell 0..3 "
                        "--max-degree 5"),
    "cohom-n4k2": _args("cohom --n 4 --k 2 --part full --ell 0..4 "
                        "--max-degree 7"),
    "cohom-n2k2": _args("cohom --n 2 --k 2 --part full --ell 0..2 "
                        "--max-degree 5"),
    # k > n: dependent families on the streamed route
    "cohom-n2k3": _args("cohom --n 2 --k 3 --part full --ell 0..2 "
                        "--max-degree 4"),
    # E_infinity against the direct route
    "pages-n2k2": _args("pages --n 2 --k 2 --max-degree 4"),
    "pages-minus-n3k2": _args("pages --n 3 --k 2 --part minus "
                              "--max-degree 4"),
    "pages-n2k3": _args("pages --n 2 --k 3 --max-degree 3"),
    "pages-n3k1": _args("pages --n 3 --k 1 --max-degree 6"),
    # E_1, on the Fock route (k >= n) and off the Koszul tables (k < n)
    "e1-n2k3": _args("e1 --n 2 --k 3 --max-degree 5"),
    "e1-n3k3": _args("e1 --n 3 --k 3 --max-degree 5"),
    "e1-n8k3": _args("e1 --n 8 --k 3 --max-degree 8"),
    # k = n - 1, with E_1 on two levels; and the +1 part below degree k,
    # where its level-k series has not started
    "e1-n5k4": _args("e1 --n 5 --k 4 --max-degree 7"),
    "e1-plus-below-k": _args("e1 --n 3 --k 2 --part plus --max-degree 1"),
    # one part at a time on the Fock route, at k = n and k > n
    "e1-minus-n2k2": _args("e1 --n 2 --k 2 --part minus --max-degree 6"),
    "e1-plus-n2k3": _args("e1 --n 2 --k 3 --part plus --max-degree 4"),
    # Koszul certificates (q at k < n is not regular: exit 1)
    "koszul-c-k3": _args("koszul --model c --k 3 --max-degree 9"),
    "koszul-w-k3": _args("koszul --model w --k 3 --max-degree 6"),
    "koszul-q-n3k2": _args("koszul --model q --n 3 --k 2 --max-degree 8"),
    # closed-form series
    "hilbert-cminus-k3": _args("hilbert --model cminus --k 3 "
                               "--max-degree 12"),
    "hilbert-aquot-n3k3": _args("hilbert --model aquot --n 3 --k 3 "
                                "--max-degree 10"),
    # every verification suite
    "verify-n2k2": _args("verify --suite all --n 2 --k 2"),
    "verify-n3k1": _args("verify --suite all --n 3 --k 1"),
    "verify-n4k2": _args("verify --suite all --n 4 --k 2"),
    # k > n: the random invariant cochains of the closedness suite are
    # drawn from dependent families
    "verify-n2k3": _args("verify --suite all --n 2 --k 3"),
    # capped runs (exit 3): the document and the abort text
    "cohom-capped": _args("cohom --n 3 --k 2 --part minus --ell 0..3 "
                          "--max-degree 4 --max-entries 80"),
    "pages-capped": _args("pages --n 2 --k 2 --max-degree 3 "
                          "--max-entries 60"),
    "e1-fock-capped": _args("e1 --n 2 --k 3 --max-degree 4 "
                            "--max-entries 30"),
    "koszul-capped": _args("koszul --model q --n 3 --k 3 --max-degree 7 "
                           "--max-entries 3000"),
    "verify-bases-capped": _args("verify --suite bases --n 3 --k 2 "
                                 "--max-entries 200"),
    # the suites that finished before the cap keep their verdicts
    "verify-all-capped": _args("verify --suite all --n 3 --k 2 "
                               "--max-entries 200"),
    # usage errors (exit 2, argparse's message on stderr): a bad choice,
    # and a command the top-level parser does not know
    "usage-error": _args("cohom --part bogus"),
    "usage-error-command": _args("bogus"),
    # a flag abbreviated to a unique prefix, which argparse accepts
    "abbrev-flag": _args("cohom --n 3 --k 2 --part minus --ell 3 "
                         "--max-deg 3"),
}


def strip_timing(text):
    """The document without its top-level "timing" line."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith('  "timing": '))


def run(argv):
    """(exit code, stdout, stderr) of one in-process call of main.

    argparse wraps its usage text at the terminal width, which it reads
    from COLUMNS, so the call runs at a fixed width of 80."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def regenerate(names=()):
    """Run the named cases, or every case if none is named, and write
    their files and cases.json; raise ValueError before writing anything
    if a name is not in CASES."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise ValueError("unknown case id: %s" % " ".join(unknown))
    index_path = GOLDEN / "cases.json"
    index = json.loads(index_path.read_text()) if names else {}
    GOLDEN.mkdir(exist_ok=True)
    for name in names or CASES:
        argv = CASES[name]
        code, out, err = run(argv)
        (GOLDEN / (name + ".out")).write_text(strip_timing(out))
        (GOLDEN / (name + ".err")).write_text(err)
        index[name] = {"argv": argv, "exit": code}
        print("%-22s exit %s" % (name, code), file=sys.stderr)
    index_path.write_text(json.dumps(
        {name: index[name] for name in CASES if name in index},
        indent=2) + "\n")


def script(names):
    """The script's exit code: regenerate(names), 2 on an unknown id."""
    try:
        regenerate(names)
    except ValueError as exc:
        print("make_golden: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(script(sys.argv[1:]))
