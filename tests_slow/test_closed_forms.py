"""Slow tier: closed forms of the paper at windows tier-1 does not reach.

Tier-1 collects only `tests/` (`testpaths` in pyproject.toml), so this
directory runs on request (`pythonpath` there puts `src` on the path):

    python -m pytest tests_slow

The three checks take about a minute and a half together.
"""

import json

from weilcoh import cli
from weilcoh.fock import direct_cohomology_dims, invariant_quotient_dims
from weilcoh.polyring import FockRing, q_gen


def test_n2k3_top_level_is_the_invariant_quadric_quotient():
    # k >= n: the cohomology sits on level n and is the SO(n)-invariant
    # part of P_k / (q_1, ..., q_n); every lower level vanishes
    R = FockRing(2, 3)
    quo = invariant_quotient_dims(R, [q_gen(R, a) for a in (1, 2)], 3)
    assert [quo[t] for t in range(4)] == [1, 3, 15, 31]
    for ell in range(3):
        rep = direct_cohomology_dims(R, "full", ell, 3)
        assert all(rep.stabilized.values()), ell
        assert rep.dims == (quo if ell == 2 else dict.fromkeys(range(4), 0))


def test_n3k3_top_level_is_the_invariant_quadric_quotient():
    # k = n: the top level at window 4, every cell stabilized
    R = FockRing(3, 3)
    quo = invariant_quotient_dims(R, [q_gen(R, a) for a in (1, 2, 3)], 4)
    assert [quo[t] for t in range(5)] == [1, 3, 12, 26, 63]
    rep = direct_cohomology_dims(R, "full", 3, 4)
    assert all(rep.stabilized.values())
    assert rep.dims == quo


def test_n3k3_plus_part_within_the_default_cap(capsys):
    # the +1 part at k = n is one class, Phi_(1,2,3) on level 3 in degree
    # 3, and the whole run stays under the default entry cap
    code = cli.main(["cohom", "--n", "3", "--k", "3", "--part", "plus",
                     "--ell", "0..3", "--max-degree", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    cells = {(c["ell"], c["degree"]): c
             for table in doc["tables"] for c in table["cells"]}
    assert set(cells) == {(ell, t) for ell in range(4) for t in range(4)}
    assert all(c["stabilized"] for c in cells.values())
    assert {cell: c["dim"] for cell, c in cells.items() if c["dim"]} == \
        {(3, 3): 1}
