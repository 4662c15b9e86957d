"""Regular-sequence certificates, ideal quotients, Hilbert series.

For a graded ring R and an ordered sequence of homogeneous elements
f_1, ..., f_m, everything here is windowed: quotient dimensions and
regularity are computed degree by degree up to a stated bound by exact
linear algebra, and the certificates say so rather than claiming anything
beyond the window.  The sequence entries may have mixed degrees.

Both certificates rest on one table, the Hilbert functions of the prefix
quotients: H_a(t) = dim (R / I_a)_t with I_a = (f_1, ..., f_a).  For each
degree t one Eliminator takes the ideal rows of f_1, ..., f_m in sequence
order, and its rank after f_a is dim (I_a)_t.  The quotient dims are H_m.
Regularity reads off H too: with A = R / I_{a-1} and d = deg f_a, the
exact sequence

    0 -> K_t -> A_t --f_a--> A_{t+d} -> (A / f_a A)_{t+d} -> 0

gives dim K_t = H_{a-1}(t) - H_{a-1}(t+d) + H_a(t+d), so f_a is injective
on A_t exactly when that integer is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import Eliminator
from .polyring import Polynomial, monomials_of_degree

__all__ = [
    "KoszulSpec",
    "regular_sequence_check",
    "RegularityCertificate",
    "ci_hilbert",
    "ideal_quotient_dims",
    "quotient_class_independence",
]


@dataclass(frozen=True)
class KoszulSpec:
    """A graded ring plus an ordered sequence of homogeneous elements."""

    ring: object
    sequence: tuple

    def __init__(self, ring, sequence):
        seq = tuple(sequence)
        for f in seq:
            if not f:
                raise ValueError("sequence entries must be nonzero")
            if f.ring != ring:
                raise ValueError("sequence entry from the wrong ring")
            if not f.is_homogeneous():
                raise ValueError("sequence entries must be homogeneous")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "sequence", seq)

    @property
    def degrees(self):
        return tuple(f.degree() for f in self.sequence)


def _ideal_rows(ring, gens, t):
    """Spanning rows (over exponent keys) of the degree-t piece of the
    ideal generated by gens."""
    rows = []
    for f in gens:
        df = f.degree()
        if df > t:
            continue
        for e in monomials_of_degree(ring, t - df):
            prod = Polynomial(ring, {e: 1}) * f
            rows.append(dict(prod.terms))
    return rows


def _prefix_quotient_dims(spec, window):
    """hilb[a][t] = dim (R / (f_1, ..., f_a))_t for a <= m and t <= window,
    from one elimination per degree (see the module docstring)."""
    ring = spec.ring
    # hilb[0][t] = dim R_t, the coefficients of 1 / prod(1 - t^w_v)
    hilb = [ci_hilbert(ring.weights, (), window)]
    hilb += [[] for _ in spec.sequence]
    for t, dim_rt in enumerate(hilb[0]):
        e = Eliminator()
        for a, f in enumerate(spec.sequence, start=1):
            for r in _ideal_rows(ring, (f,), t):
                e.add_row(r)
            hilb[a].append(dim_rt - e.rank)
    return hilb


@dataclass
class RegularityCertificate:
    """Per-element degreewise injectivity report, valid up to `window`."""

    window: int
    ok: list = field(default_factory=list)        # per element
    failure_degree: list = field(default_factory=list)  # or None

    @property
    def regular(self):
        return all(self.ok)


def regular_sequence_check(spec, window):
    """Certify, degree by degree through the window, that each f_alpha is
    injective by multiplication on R/(f_1, ..., f_{alpha-1}).

    A failure is reported with the degree of the offending target
    (deg g + deg f_alpha), not raised.
    """
    hilb = _prefix_quotient_dims(spec, window)
    cert = RegularityCertificate(window)
    for a, f in enumerate(spec.sequence, start=1):
        df = f.degree()
        prev, cur = hilb[a - 1], hilb[a]
        # dim ker(f_a : A_t -> A_{t+df}), A = R / I_{a-1}
        fail = next((t + df for t in range(window - df + 1)
                     if prev[t] - prev[t + df] + cur[t + df]), None)
        cert.ok.append(fail is None)
        cert.failure_degree.append(fail)
    return cert


def ci_hilbert(var_degrees, seq_degrees, window):
    """Truncated coefficients of prod(1 - t^df) / prod(1 - t^dv).

    The oracle for a complete-intersection quotient; a negative
    coefficient means the input could not have been a regular sequence
    and is reported as an error.
    """
    coeffs = [int(t == 0) for t in range(window + 1)]
    for df in seq_degrees:
        nxt = list(coeffs)
        for t in range(df, window + 1):
            nxt[t] -= coeffs[t - df]
        coeffs = nxt
    for dv in var_degrees:
        # divide by (1 - t^dv): running sum with stride dv
        for t in range(dv, window + 1):
            coeffs[t] += coeffs[t - dv]
    if any(c < 0 for c in coeffs):
        raise ValueError("negative Hilbert coefficient: not a regular "
                         "configuration")
    return coeffs


def ideal_quotient_dims(spec, window):
    """{t: dim (R / (sequence))_t} for t <= window."""
    return dict(enumerate(_prefix_quotient_dims(spec, window)[-1]))


def quotient_class_independence(spec, classes, degree):
    """Are the classes independent in (R/(sequence))_degree?

    Returns (independent, rank-of-classes-in-quotient).
    """
    ring = spec.ring
    for c in classes:
        if not c or not c.is_homogeneous() or c.degree() != degree:
            raise ValueError("classes must be homogeneous of the stated degree")
        if c.ring != ring:
            raise ValueError("class from the wrong ring")
    e = Eliminator()
    for r in _ideal_rows(ring, spec.sequence, degree):
        e.add_row(r)
    base = e.rank
    for c in classes:
        e.add_row(dict(c.terms))
    quotient_rank = e.rank - base
    return quotient_rank == len(classes), quotient_rank
