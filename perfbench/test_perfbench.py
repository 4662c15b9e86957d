"""Tests of the benchmark itself, with every workload shrunk to
--max-degree 1 or 2 so that the whole file runs in well under a minute.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Q_INVARIANT_QUOTIENT_N2K2, WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name):
    degree = 1 if name == "pages-full-n2k2" else 2
    return dataclasses.replace(WORKLOADS[name], max_degree=degree)


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_benchmark_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_emitted_with_unit(name, monkeypatch):
    # a tiny cap would abort every call with exit code 3 if it leaked
    monkeypatch.setenv("WEILCOH_MAX_ENTRIES", "5")
    plain, metrics, _ = run.plain_run(tiny(name), seed=1, seconds=0)
    out = run.result(plain, metrics)
    assert out["correct"] and out["attempted"] == 1 and out["failed"] == 0
    assert units(out) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())

    traced, metrics, _ = run.traced_run(tiny(name), seed=1)
    out = run.result(traced, metrics)
    assert out["correct"], traced.problems
    assert out["attempted"] == 3 and out["failed"] == 0
    assert units(out) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def _corruptions(doc):
    """Copies of a CLI document, each with one defect."""
    first = next(c for t in doc["tables"] for c in t["cells"] if c["dim"])
    for edit in ("dim", "stabilized", "extra", "verdict"):
        bad = json.loads(json.dumps(doc))
        cells = bad["tables"][0]["cells"]
        if edit == "dim":
            cell = next(c for t in bad["tables"] for c in t["cells"]
                        if c == first)
            cell["dim"] += 1
        elif edit == "stabilized":
            cells[0]["stabilized"] = False
        elif edit == "extra":
            cells.append({"ell": 0, "degree": 0, "dim": 1,
                          "stabilized": True})
        else:
            bad["verdicts"].append({"name": "x", "pass": False,
                                    "detail": ""})
        yield edit, json.dumps(bad)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_table_is_failed(name, monkeypatch):
    workload = tiny(name)
    good = run.spawn("plain", workload.argv())
    assert workload.check(good["exit"], good["doc"]) == []
    assert workload.check(1, good["doc"])
    for edit, text in _corruptions(json.loads(good["doc"])):
        assert workload.check(0, text), edit

    # through the harness: every call counts as failed
    bad_doc = next(_corruptions(json.loads(good["doc"])))[1]
    monkeypatch.setattr(run, "spawn", lambda *a, **k: dict(good, doc=bad_doc))
    plain, metrics, _ = run.plain_run(workload, seed=1, seconds=0)
    out = run.result(plain, metrics)
    assert not out["correct"] and out["failed"] == out["attempted"] == 1


def test_tracer_hand_count():
    import weilcoh.fock as fock
    import weilcoh.linalg as linalg
    from weilcoh.polyring import FockRing

    ring = FockRing(2, 1)
    closed = fock.phi1(ring)  # two parts, d(phi_1) = 0
    single = fock.Cochain(ring, 1, {0b01: ring.z_var(1, 1)})
    tracer = Tracer()
    tracer.install()
    try:
        assert fock.diff(closed).parts == {}
        fock.diff(single)
        elim = linalg.Eliminator()
        for row in ({0: 1, 1: 1, 2: 1}, {0: 1, 1: 3, 2: 8}, {0: 2, 1: 2, 2: 2}):
            elim.add_row(row)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    # per (part, alpha not in the part, column): two partials, two products
    assert m["fock.diff.calls"] == 2
    assert m["polyring.partial.calls"] == 6
    assert m["polyring.mul.calls"] == 6
    assert m["fock.diff.out_terms"] == 1  # z11 z21 w1 on omega_12
    assert m["linalg.add_row.calls"] == m["linalg.reduce.calls"] == 3
    assert m["linalg.add_row.useful_ratio"] == pytest.approx(2 / 3)
    assert m["linalg.reduce.in_entries"] == 9
    assert m["linalg.reduce.out_entries"] == 3 + 2 + 0  # residual {1: 2, 2: 7}
    assert m["linalg.max_coeff_bits"] == 3
    assert m["fock.to_row.calls"] == m["linalg.kernel_basis.calls"] == 0
    # the originals are back
    assert fock.diff.__name__ == "diff" and not hasattr(fock.diff,
                                                        "__wrapped__")


def test_tracer_covers_every_importing_namespace(capsys):
    import weilcoh.cli as cli

    tracer = Tracer()
    replaced, missing = tracer.install()
    try:
        assert missing == [] and tracer.stale_bindings() == []
        names = {".".join(pair) for pair in replaced}
        for binding in (
                "weilcoh.spectral.diff", "weilcoh.spectral.invariant_family",
                "weilcoh.spectral.direct_cohomology_dims",
                "weilcoh.cli.direct_cohomology_dims",
                "weilcoh.fock.kernel_basis",
                "weilcoh.fock.span_intersect_window",
                "weilcoh.spectral.kernel_basis",
                "weilcoh.spectral.span_intersect_window",
                "weilcoh.cli.regular_sequence_check",
                "weilcoh.cli.ideal_quotient_dims",
                "Polynomial.__mul__", "Polynomial.__rmul__"):
            assert binding in names, binding
        code = cli.main(["koszul", "--model", "q", "--n", "1", "--k", "1",
                         "--max-degree", "1"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    stats = tracer.stats
    assert stats["cli.main"].calls == 1
    assert stats["koszul.regular_sequence_check"].calls == 1
    assert stats["koszul.ideal_quotient_dims"].calls == 1
    assert stats["fock.diff"].calls == 0
    # nested spans: no self time is counted twice
    assert tracer.self_total() <= stats["cli.main"].incl_s


def test_renamed_target_fails_the_traced_run(tmp_path, monkeypatch):
    # a package in which a traced function has a new name: its span would
    # read 0 everywhere, which must not pass as a correct run
    src = tmp_path / "src"
    shutil.copytree(run.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for path in (src / "weilcoh").glob("*.py"):
        path.write_text(re.sub(r"\bideal_quotient_dims\b",
                               "quotient_dims_by_degree", path.read_text()))
    monkeypatch.setattr(run, "SRC", src)
    traced, metrics, _ = run.traced_run(tiny("koszul-q-n3k3"), seed=1)
    out = run.result(traced, metrics)
    assert out["failed"] == 0  # the tables are still right
    assert not out["correct"]
    assert any("koszul.ideal_quotient_dims" in p for p in traced.problems)


def test_count_mismatch_ignores_times():
    names = [m["name"] for m in BENCH["per_layer"]
             if not m["name"].startswith("trace.")]
    first = dict.fromkeys(names, 1)
    second = dict(first, **{"fock.diff.self_s": 2})
    assert run.count_mismatches(first, second) == []
    second["linalg.max_coeff_bits"] = 2
    assert run.count_mismatches(first, second) == ["linalg.max_coeff_bits"]


def test_pages_oracle_table_matches_package():
    from weilcoh.fock import invariant_quotient_dims
    from weilcoh.polyring import FockRing, q_gen

    ring = FockRing(2, 2)
    dims = invariant_quotient_dims(ring, [q_gen(ring, 1), q_gen(ring, 2)],
                                   len(Q_INVARIANT_QUOTIENT_N2K2) - 1)
    assert tuple(dims.values()) == Q_INVARIANT_QUOTIENT_N2K2


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "koszul-q-n3k3", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
