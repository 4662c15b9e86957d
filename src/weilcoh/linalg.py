"""Sparse exact linear algebra over the integers.

Everything downstream (graded cohomology, Koszul homology, invariant
dimensions) reduces to ranks and kernels of sparse matrices whose entries
are small integers but whose sizes can reach the tens of thousands.  The
workhorse is an insertion-based fraction-free elimination: rows are kept as
integer dictionaries keyed by an arbitrary sortable column label, each new
row is reduced against the stored pivot rows by integer cross-multiplication
(with a gcd strip on entry and after every combination), and a row that
survives becomes a new pivot row.  No floating point, no modular shortcuts.
Input rows hold ints only; a row with any other entry type is a TypeError.

Column labels may be any mutually comparable hashable values -- integers for
plain matrices, or structured keys such as (form-index, monomial) tuples
when a matrix is assembled directly over an ambient basis.

Kernels are read off columns, as the callers hold their maps: one
{row label: int} column per family vector or basis member, the list of
them a SparseRationalMatrix.  kernel_basis numbers the row labels (any
hashable values) itself and returns each kernel vector as {j: int}
coefficients on the columns, and combination(coefs, rows) turns such a
vector into the combination of the family rows it stands for.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from math import gcd

__all__ = [
    "ResourceCapError",
    "Eliminator",
    "SparseRationalMatrix",
    "combination",
    "kernel_basis",
    "rank_of_rows",
    "span_intersect_window",
    "DEFAULT_MAX_ENTRIES",
    "entry_cap",
]

DEFAULT_MAX_ENTRIES = 2_000_000

# the entry cap in force, read by each Eliminator when it is made; set it
# with entry_cap
MAX_ENTRIES = ContextVar("max_entries", default=DEFAULT_MAX_ENTRIES)


class ResourceCapError(Exception):
    """Raised when an elimination exceeds the configured entry cap."""

    def __init__(self, entries, cap):
        self.entries = entries
        self.cap = cap
        super().__init__(
            "elimination exceeded resource cap: %d stored entries > cap %d"
            % (entries, cap)
        )


@contextmanager
def entry_cap(limit):
    """Cap the stored entries of every elimination inside the block at
    limit; the previous cap is back on exit, by exception too."""
    token = MAX_ENTRIES.set(limit)
    try:
        yield
    finally:
        MAX_ENTRIES.reset(token)


class Eliminator:
    """Incremental fraction-free row reduction.

    Stored state is a map pivot-column -> integer row whose smallest nonzero
    column is that pivot.  Rows are inserted one at a time; the rank is the
    number of stored pivot rows.  Determinism: within a row the pivot is
    always its smallest column label, and combination order follows the
    column order, so a fixed insertion order yields a fixed reduction.

    add_shifted(f, lead, x) inserts the shift {y + x: c} of a primitive
    row f with no zero entry and least label lead, on labels that add in
    order (y < y' exactly when y + x < y' + x).  The shift is primitive
    with least label lead + x, so when that label is no pivot the first
    pass of reduce would return it unchanged, and it is stored as it
    stands, after add_row's cap check on an unreduced row.
    """

    def __init__(self):
        self.pivots = {}  # pivot col -> {col: int}
        self._entries = 0
        self._cap = MAX_ENTRIES.get()

    @property
    def rank(self):
        return len(self.pivots)

    def _check_cap(self, extra):
        if self._entries + extra > self._cap:
            raise ResourceCapError(self._entries + extra, self._cap)

    def reduce(self, row):
        """Reduce a {col: int} row against the stored pivots.

        Returns the residual row, primitive and possibly empty, without
        storing it.  One gcd strip, at the top of the loop, makes primitive
        both the copied input and each combination (after its cap check);
        math.gcd rejects any entry that is not an int with TypeError.
        """
        r = {c: v for c, v in row.items() if v}
        while r:
            g = gcd(*r.values())
            if g > 1:
                for col in r:
                    r[col] //= g
            c = min(r)
            if c not in self.pivots:
                return r
            p = self.pivots[c]
            a, b = p[c], r[c]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            # r := ma*r - mb*p  (kills column c)
            new = {}
            for col, v in r.items():
                new[col] = ma * v
            for col, v in p.items():
                nv = new.get(col, 0) - mb * v
                if nv:
                    new[col] = nv
                elif col in new:
                    del new[col]
            self._check_cap(len(new))
            r = new
        return r

    def add_row(self, row):
        """Insert a row; returns True if it increased the rank."""
        r = self.reduce(row)
        if not r:
            return False
        self._check_cap(len(r))
        self.pivots[min(r)] = r
        self._entries += len(r)
        return True

    def add_shifted(self, f, lead, x):
        """add_row({y + x: c for y, c in f.items()}), with no reduce when
        the least label lead + x is free (see the class docstring)."""
        pivot = lead + x
        if pivot in self.pivots:
            return self.add_row({y + x: c for y, c in f.items()})
        self._check_cap(len(f))
        self.pivots[pivot] = {y + x: c for y, c in f.items()}
        self._entries += len(f)
        return True


class SparseRationalMatrix:
    """Column-sparse matrix, the argument of kernel_basis: column j is a
    {row label: int} dict, and cols is the number of columns."""

    def __init__(self, columns):
        self.columns = columns
        self.cols = len(columns)


def rank_of_rows(rows):
    """Rank of a family of {col: value} rows."""
    e = Eliminator()
    for r in rows:
        e.add_row(r)
    return e.rank


def kernel_basis(m):
    """A basis of {v : m v = 0} as sparse {col: int} rows.

    Row j of [m^T | I] is (column j of m, e_j), so a combination with
    coefficients v is (m v, v): the span meets the identity block exactly
    in the kernel, and the basis has cols - rank(m) rows.  The identity
    block holds columns 0..cols-1, and the row labels of m are numbered
    past it, cols + i for the i-th label met when the columns are read in
    order.
    """
    cols = m.cols
    index = {}
    rows = []
    for j, column in enumerate(m.columns):
        row = {j: 1}
        for label, v in column.items():
            row[cols + index.setdefault(label, len(index))] = v
        rows.append(row)
    return span_intersect_window(rows, lambda c: c < cols)


def combination(coefs, rows):
    """sum of coefs[j] * rows[j] over the {j: int} coefs, as a {col: int}
    row without zeros; rows is indexed by j (a list or a dict)."""
    out = {}
    for j, coef in coefs.items():
        for c, v in rows[j].items():
            out[c] = out.get(c, 0) + coef * v
    return {c: v for c, v in out.items() if v}


def span_intersect_window(vectors, in_window):
    """A basis (list of {col: int} rows) of span(vectors) ∩ window.

    Works by re-sorting columns so that out-of-window labels come first;
    echelon rows whose pivot is in-window then have no out-of-window
    support at all.  Their number is rank(V) minus the rank of the
    projection of V onto the out-of-window coordinates.  The rows come in
    increasing pivot order.
    """
    e = Eliminator()
    for v in vectors:
        e.add_row({((0, c) if not in_window(c) else (1, c)): x
                   for c, x in v.items()})
    return [{c: x for (_, c), x in e.pivots[p].items()}
            for p in sorted(e.pivots) if p[0] == 1]
