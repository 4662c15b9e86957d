"""Closed forms of the paper at the larger windows: every level of the
direct route at once, against the binomials and the c-quotient for
k < n and the invariant quadric series for k >= n; E_1 for k < n across
n, on the S_k model; and the complete intersection P_k / (q_1..q_n) for
k >= n."""

import json
from math import comb

import pytest
from series import ci_series, sk_weights

from weilcoh import cli
from weilcoh.fock import direct_cohomology_dims, invariant_quotient_dims
from weilcoh.koszul import (
    KoszulSpec,
    ideal_quotient_dims,
    regular_sequence_check,
)
from weilcoh.polyring import FockRing, q_gen
from weilcoh.spectral import e1_dims


def level_dims(n, k, part, window):
    """{ell: [dim gr_t H^ell for t <= window]} at every level."""
    R = FockRing(n, k)
    out = {}
    for ell in range(n + 1):
        rep = direct_cohomology_dims(R, part, ell, window)
        out[ell] = [rep[t] for t in range(window + 1)]
    return out


def concentrated(n, window, level, top):
    """Zero on every level but one, which carries top."""
    zero = [0] * (window + 1)
    return {ell: list(top) if ell == level else zero
            for ell in range(n + 1)}


def test_n2k3_top_level_is_the_invariant_quadric_quotient():
    # k >= n: the cohomology sits on level n and is the SO(n)-invariant
    # part of P_k / (q_1, ..., q_n); every lower level vanishes
    R = FockRing(2, 3)
    quo = invariant_quotient_dims(R, [q_gen(R, a) for a in (1, 2)], 3)
    assert [quo[t] for t in range(4)] == [1, 3, 15, 31]
    assert level_dims(2, 3, "full", 3) == \
        concentrated(2, 3, 2, [quo[t] for t in range(4)])


def test_n3k3_top_level_is_the_invariant_quadric_quotient():
    # k = n at window 8: levels 0-2 vanish and level 3 is the Hilbert
    # series of the SO(3)-invariants of P_3 / (q_1, q_2, q_3), written
    # out from its Weyl-character (constant-term) closed form and
    # cross-checked by elimination through window 4
    series = [1, 3, 12, 26, 63, 114, 219, 354, 594]
    R = FockRing(3, 3)
    quo = invariant_quotient_dims(R, [q_gen(R, a) for a in (1, 2, 3)], 4)
    assert [quo[t] for t in range(5)] == series[:5]
    assert level_dims(3, 3, "full", 8) == concentrated(3, 8, 3, series)


def test_n4k2_minus_part_is_the_c_quotient():
    # k < n: the -1 part sits on level n with the dims of S_k / (c), a
    # complete intersection of k cubics in k(k+1)/2 generators of degree
    # 2 and k of degree 1
    cquo = ci_series(sk_weights(2), (3,) * 2, 10)
    assert level_dims(4, 2, "minus", 10) == concentrated(4, 10, 4, cquo)


def test_n4k2_plus_part_is_binomial():
    # k < n: the +1 part sits on level k, with dim comb(m + 2, 2) in
    # degree k + 2m (the degree-m monomials in the three rhat(i, j))
    plus = [0, 0, 1, 0, 3, 0, 6, 0, 10, 0, 15]
    assert plus == [comb((t - 2) // 2 + 2, 2) if t >= 2 and t % 2 == 0
                    else 0 for t in range(11)]
    assert level_dims(4, 2, "plus", 10) == concentrated(4, 10, 2, plus)


@pytest.mark.parametrize("n,k,window", [(10, 2, 12), (8, 3, 8)])
def test_e1_k_less_n_theorem_across_n(n, k, window):
    # k < n at n far above k, where the Fock route with its n k
    # z-variables cannot go: E_1 is the binomials of the +1 part on level
    # k and the c-quotient of the -1 part on level n, and nothing else
    plus = [comb((t - k) // 2 + k * (k + 1) // 2 - 1, (t - k) // 2)
            if t >= k and (t - k) % 2 == 0 else 0 for t in range(window + 1)]
    cquo = ci_series(sk_weights(k), (3,) * k, window)
    want = {(k, t): d for t, d in enumerate(plus) if d}
    want.update(((n, t), d) for t, d in enumerate(cquo) if d)
    assert e1_dims(FockRing(n, k), "full", window) == want


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
    assert {cell: c["dim"] for cell, c in cells.items() if c["dim"]} == \
        {(3, 3): 1}


@pytest.mark.parametrize("n,k,window", [(4, 4, 6), (3, 3, 8)])
def test_q_quotient_is_the_complete_intersection(n, k, window):
    # k >= n: q_1..q_n is a regular sequence of quadrics in the n k + k
    # variables of P_k, so its quotient has the complete-intersection
    # Hilbert series
    R = FockRing(n, k)
    spec = KoszulSpec(R, [q_gen(R, a) for a in range(1, n + 1)])
    hilb = ideal_quotient_dims(spec, window)
    assert regular_sequence_check(spec, hilb).regular
    assert hilb[-1] == dict(enumerate(
        ci_series((1,) * (n * k + k), (2,) * n, window)))


@pytest.mark.parametrize("n,k,window", [(4, 4, 6), (3, 3, 8)])
def test_koszul_q_command_is_the_complete_intersection(n, k, window, capsys):
    # the same through the koszul command: the regularity verdict passes
    # and the quotient table is the complete-intersection series
    code = cli.main(["koszul", "--model", "q", "--n", str(n), "--k", str(k),
                     "--max-degree", str(window)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    (verdict,) = doc["verdicts"]
    assert verdict["pass"]
    (table,) = doc["tables"]
    assert [c["dim"] for c in table["cells"]] == \
        ci_series((1,) * (n * k + k), (2,) * n, window)
