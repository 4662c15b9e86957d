"""The benchmark's named workloads and the closed forms that check them.

Every workload is a deterministic exact computation.  Its oracle is a
closed form from the paper, evaluated here in a few lines of plain Python
that share no code with weilcoh, outside any timed region.  A table is
compared cell by cell: dimension and stabilization flag, with no missing
and no extra cells; each named verdict must pass.
"""

import json
from dataclasses import dataclass
from math import comb


def ci_hilbert(var_degrees, seq_degrees, window):
    """Coefficients through `window` of prod(1 - t^f) / prod(1 - t^v)."""
    coeffs = [1] + [0] * window
    for f in seq_degrees:
        coeffs = [c - (coeffs[t - f] if t >= f else 0)
                  for t, c in enumerate(coeffs)]
    for v in var_degrees:
        for t in range(v, window + 1):
            coeffs[t] += coeffs[t - v]
    return coeffs


def c_quotient(k, window):
    """Hilbert series of S_k / (c_1..c_k): k(k+1)/2 generators of degree 2,
    k of degree 1, and k relations of degree 3."""
    tk = k * (k + 1) // 2
    return ci_hilbert((2,) * tk + (1,) * k, (3,) * k, window)


def plus_dim(k, t):
    """dim of the +1 part at level k and degree t when k < n: the S_k
    monomials of degree t - k in the k(k+1)/2 quadratic generators."""
    if t < k or (t - k) % 2:
        return 0
    m = (t - k) // 2
    return comb(m + k * (k + 1) // 2 - 1, m)


# SO(2)-invariant part of P_2 / (q_1, q_2) by degree, the value of
# weilcoh.fock.invariant_quotient_dims for the q-sequence at (n, k) = (2, 2);
# the benchmark's tests recompute it from the package
Q_INVARIANT_QUOTIENT_N2K2 = (1, 2, 7, 8, 19)


@dataclass(frozen=True)
class Workload:
    """One CLI call with its oracle.  Subclasses give the argv and the
    expected tables; `max_degree` sets the size (the tests shrink it)."""

    name: str
    n: int
    k: int
    max_degree: int
    why: str

    def argv(self):
        raise NotImplementedError

    def expected(self):
        """({table name: {(ell, degree): dim}} over the nonzero dims,
        names of the verdicts that must pass)."""
        raise NotImplementedError

    def check(self, exit_code, doc_text):
        """The problems found in one CLI result; empty when it is right."""
        if exit_code != 0:
            return ["exit code %r" % exit_code]
        try:
            doc = json.loads(doc_text)
        except ValueError as exc:
            return ["output is not JSON: %s" % exc]
        tables, verdicts = self.expected()
        problems = []
        got = {}
        for table in doc["tables"]:
            cells = table["cells"]
            got[table["name"]] = {(c["ell"], c["degree"]): c["dim"]
                                  for c in cells if c["dim"]}
            unstable = [(c["ell"], c["degree"]) for c in cells
                        if not c["stabilized"]]
            if unstable:
                problems.append("table %r: unstabilized cells %s"
                                % (table["name"], unstable))
        if set(got) != set(tables):
            problems.append("tables %s, expected %s"
                            % (sorted(got), sorted(tables)))
        for name, cells in tables.items():
            if name in got and got[name] != cells:
                problems.append("table %r differs from the oracle" % name)
        outcome = {v["name"]: v["pass"] for v in doc["verdicts"]}
        failed = sorted(name for name, ok in outcome.items() if not ok)
        if failed:
            problems.append("failed verdicts %s" % failed)
        problems.extend("verdict %r missing" % name
                        for name in verdicts if name not in outcome)
        return problems


class Cohom(Workload):
    """Direct cohomology of the -1 part at level n, k < n."""

    def argv(self):
        return ["cohom", "--n", str(self.n), "--k", str(self.k),
                "--part", "minus", "--ell", str(self.n),
                "--max-degree", str(self.max_degree)]

    def expected(self):
        dims = c_quotient(self.k, self.max_degree)
        return {"cohomology part=minus ell=%d" % self.n:
                {(self.n, t): d for t, d in enumerate(dims) if d}}, ()


class Pages(Workload):
    """E_infinity against direct cohomology, k >= n = 2: both sit on the
    top level with the invariant quadric quotient dims."""

    def argv(self):
        return ["pages", "--n", str(self.n), "--k", str(self.k),
                "--max-degree", str(self.max_degree)]

    def expected(self):
        if (self.n, self.k) != (2, 2):
            raise ValueError("the pages oracle is tabulated for n = k = 2")
        D = self.max_degree
        top = {(self.n, t): d
               for t, d in enumerate(Q_INVARIANT_QUOTIENT_N2K2[:D + 1]) if d}
        # r_max = 2n - p_min + 1 with p_min = -D (spectral.einf_and_converge)
        r_max = 2 * self.n + D + 1
        return ({"Einf part=full r=%d" % r_max: top,
                 "graded cohomology part=full": top},
                ("Einf matches graded cohomology",))


class E1(Workload):
    """First page, k < n: the +1 part on level k with binomial dims at
    degrees k, k+2, ..., the -1 part on level n with the c-quotient."""

    def argv(self):
        return ["e1", "--n", str(self.n), "--k", str(self.k),
                "--part", "full", "--max-degree", str(self.max_degree)]

    def expected(self):
        D = self.max_degree
        cells = {(self.k, t): plus_dim(self.k, t) for t in range(D + 1)}
        cells.update(((self.n, t), d)
                     for t, d in enumerate(c_quotient(self.k, D)))
        return {"E1 part=full": {c: d for c, d in cells.items() if d}}, ()


class KoszulQ(Workload):
    """The n quadrics q_a in P_k: regular, so the quotient is a complete
    intersection of n relations of degree 2 in nk + k variables."""

    def argv(self):
        return ["koszul", "--model", "q", "--n", str(self.n),
                "--k", str(self.k), "--max-degree", str(self.max_degree)]

    def expected(self):
        D = self.max_degree
        dims = ci_hilbert((1,) * (self.n * self.k + self.k), (2,) * self.n, D)
        return ({"quotient dims model=q":
                 {(self.n, t): d for t, d in enumerate(dims) if d}},
                ("regular sequence through degree %d" % D,))


WORKLOADS = {w.name: w for w in (
    Cohom("cohom-minus-n3k2", 3, 2, 3,
          "the k < n headline at level n; diff takes most of the run, so it "
          "is the differential layer's workload"),
    Pages("pages-full-n2k2", 2, 2, 2,
          "E_inf against direct cohomology (k >= n); the only workload with "
          "kernel_basis, span_intersect_window, spectral pages and family "
          "rebuilds"),
    E1("e1-full-n3k2", 3, 2, 8,
       "first page for k < n; building families (pm_basis_vectors, "
       "sk_evaluate, products) dominates, so it is the families workload"),
    KoszulQ("koszul-q-n3k3", 3, 3, 7,
            "plain polynomial products and small eliminations, no fock or "
            "spectral code; the control for cochain-row changes"),
)}
