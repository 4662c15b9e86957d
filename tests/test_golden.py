"""The byte-identity contract as a test: each argv of the corpus in
tests/golden/ is re-run in process, and its stdout (without the "timing"
line), its stderr and its exit code must equal the recorded ones byte for
byte.  tests/make_golden.py regenerates the corpus and explains its
layout."""

import json

import pytest
from make_golden import GOLDEN, run, strip_timing

CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", CASES)
def test_golden_document(name):
    case = CASES[name]
    code, out, err = run(case["argv"])
    assert code == case["exit"]
    assert err == (GOLDEN / (name + ".err")).read_text()
    assert strip_timing(out) == (GOLDEN / (name + ".out")).read_text()
