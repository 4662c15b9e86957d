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
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from math import gcd

__all__ = [
    "ResourceCapError",
    "Eliminator",
    "SparseRationalMatrix",
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

    def echelon_rows(self):
        """Stored pivot rows in increasing pivot order."""
        return [self.pivots[c] for c in sorted(self.pivots)]


class SparseRationalMatrix:
    """Coordinate-sparse matrix, the input of kernel_basis.

    entries maps (row, col) -> nonzero value as given (an int in every
    caller); zeros are never stored.
    """

    def __init__(self, rows, cols):
        self.rows = rows
        self.cols = cols
        self.entries = {}

    def set(self, i, j, v):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d,%d) out of bounds" % (i, j))
        if v:
            self.entries[(i, j)] = v
        else:
            self.entries.pop((i, j), None)


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
    block holds columns 0..cols-1 and m^T is shifted past it.
    """
    cols = m.cols
    rows = [{j: 1} for j in range(cols)]
    for (i, j), v in m.entries.items():
        rows[j][cols + i] = v
    return span_intersect_window(rows, lambda c: c < cols)


def span_intersect_window(vectors, in_window):
    """A basis (list of {col: int} rows) of span(vectors) ∩ window.

    Works by re-sorting columns so that out-of-window labels come first;
    echelon rows whose pivot is in-window then have no out-of-window
    support at all.  Their number is rank(V) minus the rank of the
    projection of V onto the out-of-window coordinates.
    """
    e = Eliminator()
    for v in vectors:
        e.add_row({((0, c) if not in_window(c) else (1, c)): x
                   for c, x in v.items()})
    out = []
    for r in e.echelon_rows():
        flag, _ = min(r)
        if flag == 1:
            out.append({c: x for (_, c), x in r.items()})
    return out
