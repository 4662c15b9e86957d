"""Tests for the sparse exact linear algebra kernel."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilcoh.linalg import (
    DEFAULT_MAX_ENTRIES,
    MAX_ENTRIES,
    Eliminator,
    ResourceCapError,
    SparseRationalMatrix,
    combination,
    entry_cap,
    kernel_basis,
    rank_of_rows,
    span_intersect_window,
)


def windowed_span_dim(vectors, in_window):
    """dim( span(vectors) ∩ {v supported inside the window} ).

    vectors are {col: value} rows; in_window is a predicate on column
    labels.  Equals rank(V) minus the rank of V with the in-window
    coordinates deleted (the kernel dimension of projecting the span onto
    the out-of-window coordinates).
    """
    full = Eliminator()
    outside = Eliminator()
    for v in vectors:
        full.add_row(v)
        outside.add_row({c: x for c, x in v.items() if not in_window(c)})
    return full.rank - outside.rank


def dense_rank_oracle(rows, ncols):
    """Independent rank computation: plain Gaussian elimination over
    Fraction on dense row lists."""
    mat = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    rk = 0
    col = 0
    nrows = len(mat)
    while rk < nrows and col < ncols:
        piv = None
        for i in range(rk, nrows):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        lead = mat[rk][col]
        for i in range(rk + 1, nrows):
            if mat[i][col]:
                f = mat[i][col] / lead
                for j in range(col, ncols):
                    mat[i][j] -= f * mat[rk][j]
        rk += 1
        col += 1
    return rk


def times(m, v):
    """m v for a sparse {col: value} vector, as {row: value} without zeros:
    the columns of m scaled by v and summed."""
    out = {}
    for j, x in v.items():
        for i, y in m.columns[j].items():
            out[i] = out.get(i, 0) + x * y
    return {i: x for i, x in out.items() if x}


def from_dense(columns):
    """The matrix of the dense columns (lists of entries)."""
    return SparseRationalMatrix([{i: v for i, v in enumerate(c) if v}
                                 for c in columns])


def sparse_rows(rows):
    """Dense row lists as {col: value} rows without zeros."""
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def test_rank_identity():
    assert rank_of_rows(sparse_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_proportional_rows():
    assert rank_of_rows(sparse_rows([[1, 2], [2, 4]])) == 1


def test_rank_empty():
    assert rank_of_rows([]) == 0
    assert rank_of_rows([{}, {}, {}]) == 0


def test_rank_random_vs_dense_oracle():
    rng = random.Random(12345)
    for trial in range(25):
        rows = [
            {j: rng.randint(-5, 5) for j in range(8) if rng.random() < 0.6}
            for _ in range(6)
        ]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        assert rank_of_rows(rows) == dense_rank_oracle(rows, 8), \
            "trial %d" % trial


def test_rank_transpose_and_scaling_invariance():
    rng = random.Random(99)
    for _ in range(10):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(7)]
        rk = rank_of_rows(sparse_rows(rows))
        transposed = [[r[j] for r in rows] for j in range(5)]
        assert rank_of_rows(sparse_rows(transposed)) == rk
        # scale a row by a nonzero int, permute rows
        scaled = [list(r) for r in rows]
        scaled[2] = [-7 * v for v in scaled[2]]
        scaled.reverse()
        assert rank_of_rows(sparse_rows(scaled)) == rk


def test_kernel_identity_empty():
    assert kernel_basis(from_dense([[1, 0], [0, 1]])) == []


def test_kernel_zero_matrix():
    vs = kernel_basis(SparseRationalMatrix([{}, {}, {}]))
    assert vs == [{0: 1}, {1: 1}, {2: 1}]


def test_kernel_multiply_back():
    m = from_dense([[1], [1], [0]])
    vs = kernel_basis(m)
    assert len(vs) == 2
    for v in vs:
        assert v and all(type(x) is int and x for x in v.values())
        assert all(0 <= j < m.cols for j in v)
        assert times(m, v) == {}


def test_kernel_random_rank_nullity():
    rng = random.Random(4)
    for trial in range(15):
        columns = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(7)]
        if trial % 3 == 0:  # force a rank drop
            for c in columns:
                c[4] = c[0] - 2 * c[1]
        m = from_dense(columns)
        vs = kernel_basis(m)
        # the rank of the columns is the rank of the matrix
        assert len(vs) == 7 - rank_of_rows(sparse_rows(columns))
        for v in vs:
            assert all(0 <= j < 7 for j in v)
            assert times(m, v) == {}
        # independence of the kernel vectors themselves
        assert dense_rank_oracle(vs, 7) == len(vs)


# ---------------------------------------------------------------------------
# oracle: the coordinate-sparse kernel_basis of the previous design, fed
# the way its callers fed it


class CoordinateMatrix:
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


def coordinate_kernel_basis(m):
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


def coordinate_matrix(columns):
    """The CoordinateMatrix of {label: int} columns as the callers built
    it: one row per label, numbered in order of first appearance, set row
    by row."""
    coords = {}
    for j, column in enumerate(columns):
        for label, v in column.items():
            coords.setdefault(label, {})[j] = v
    m = CoordinateMatrix(len(coords), len(columns))
    for i, row in enumerate(coords.values()):
        for j, v in row.items():
            m.set(i, j, v)
    return m


def random_columns(rng):
    """{label: int} columns over a few tuple labels, which several columns
    share: some columns empty, some entries zero, some columns copies or
    sums of earlier ones, and the labels met in a shuffled order."""
    labels = [(rng.randrange(3), "x%d" % i) for i in range(rng.randint(1, 7))]
    columns = []
    for _ in range(rng.randint(1, 9)):
        kind = rng.randrange(4)
        if kind == 0:
            column = {}
        elif kind == 1 and columns:
            a, b = rng.choice(columns), rng.choice(columns)
            x = rng.randint(-3, 3)
            column = {c: a.get(c, 0) + x * b.get(c, 0) for c in {*a, *b}}
        else:
            column = {c: rng.randint(-3, 3)
                      for c in rng.sample(labels, rng.randint(1, len(labels)))}
        columns.append(column)
    return columns


@pytest.mark.parametrize("seed", range(40))
def test_kernel_basis_matches_the_coordinate_form(seed):
    columns = random_columns(random.Random(seed))
    got = kernel_basis(SparseRationalMatrix(columns))
    assert got == coordinate_kernel_basis(coordinate_matrix(columns))
    m = SparseRationalMatrix(columns)
    assert all(times(m, v) == {} for v in got)


def test_kernel_basis_test_matrices_are_the_hard_case():
    # across the seeds the columns include empty ones, zero entries and
    # labels that several columns share
    cases = [random_columns(random.Random(seed)) for seed in range(40)]
    assert any({} in columns for columns in cases)
    assert any(0 in c.values() for columns in cases for c in columns)
    assert any(len(set(c) & set(d)) > 1 for columns in cases
               for c in columns for d in columns if c is not d)


def dense_combination(coefs, rows, ncols):
    """sum coefs[j] rows[j] over the dense columns 0..ncols-1, zeros
    dropped."""
    total = [sum(x * rows[j].get(c, 0) for j, x in coefs.items())
             for c in range(ncols)]
    return {c: v for c, v in enumerate(total) if v}


def test_combination_against_dense():
    rng = random.Random(8)
    for _ in range(30):
        rows = [{c: rng.randint(-3, 3) for c in range(6)
                 if rng.random() < 0.5} for _ in range(5)]
        # a row and its negative make cancellations
        rows.append({c: -v for c, v in rows[0].items()})
        coefs = {j: rng.randint(-4, 4) for j in range(6) if rng.random() < 0.7}
        if rng.random() < 0.3:
            coefs[0] = coefs[5] = 1
        got = combination(coefs, rows)
        assert got == dense_combination(coefs, rows, 6)
        assert 0 not in got.values()
        # rows indexed by a dict serve too
        assert combination(coefs, dict(enumerate(rows))) == got
    assert combination({}, []) == {}
    assert combination({0: 1, 1: 1}, [{3: 2}, {3: -2}]) == {}


def test_windowed_span_trivial():
    vecs = [{0: 1}, {1: 1}]
    assert windowed_span_dim(vecs, lambda c: c == 0) == 1
    assert windowed_span_dim([{0: 1, 1: 1}], lambda c: c == 0) == 0


def test_windowed_span_full_window_is_rank():
    rng = random.Random(7)
    for _ in range(10):
        vecs = [
            {j: rng.randint(-3, 3) for j in range(6) if rng.random() < 0.7}
            for _ in range(4)
        ]
        vecs = [{j: v for j, v in r.items() if v} for r in vecs]
        assert windowed_span_dim(vecs, lambda c: True) == dense_rank_oracle(vecs, 6)


def test_windowed_span_random_vs_bruteforce():
    # brute force: eliminate out-of-window coordinates first, count rows
    # that end up supported purely inside the window
    rng = random.Random(2024)
    for _ in range(20):
        vecs = [
            {j: rng.randint(-3, 3) for j in range(5) if rng.random() < 0.8}
            for _ in range(5)
        ]
        vecs = [{j: v for j, v in r.items() if v} for r in vecs]
        window = {j for j in range(5) if rng.random() < 0.5}
        got = windowed_span_dim(vecs, lambda c: c in window)
        # oracle: rank of all vectors minus rank of out-of-window projections
        # computed with the dense routine
        full = dense_rank_oracle(vecs, 5)
        outside = dense_rank_oracle(
            [{j: v for j, v in r.items() if j not in window} for r in vecs], 5
        )
        assert got == full - outside


def test_span_intersect_window_basis():
    rng = random.Random(31)
    for _ in range(20):
        vecs = [
            {j: rng.randint(-3, 3) for j in range(6) if rng.random() < 0.7}
            for _ in range(5)
        ]
        vecs = [{j: v for j, v in r.items() if v} for r in vecs]
        window = {j for j in range(6) if rng.random() < 0.6}
        basis = span_intersect_window(vecs, lambda c: c in window)
        assert len(basis) == windowed_span_dim(vecs, lambda c: c in window)
        span = Eliminator()
        for v in vecs:
            span.add_row(v)
        for b in basis:
            assert all(c in window for c in b)
            assert not span.reduce(b)


def test_structured_column_labels():
    # column labels need only be sortable, not integers
    vecs = [{("a", 2): 1, ("b", 1): 2}, {("a", 2): 2, ("b", 1): 4}]
    e = Eliminator()
    for v in vecs:
        e.add_row(v)
    assert e.rank == 1


@pytest.mark.parametrize("row", [{0: 2, 1: Fraction(1, 2)}, {0: 2, 1: 0.5},
                                 {0: Fraction(4)}, {0: 2.0}],
                         ids=["fraction", "float", "whole-fraction",
                              "whole-float"])
def test_add_row_rejects_non_int_entries(row):
    # ints are the only entry type; nothing is converted on entry
    e = Eliminator()
    with pytest.raises(TypeError):
        e.add_row(row)
    assert e.rank == 0


def test_resource_cap():
    rows = [{j: i * 7 + j + 1 + (i == j) for j in range(4)} for i in range(4)]
    with entry_cap(3), pytest.raises(ResourceCapError):
        rank_of_rows(rows)
    assert rank_of_rows(rows) == 4


def test_nested_caps_restore_the_outer_cap():
    rows = sparse_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    with entry_cap(1000):
        with entry_cap(2):
            assert MAX_ENTRIES.get() == 2
            with pytest.raises(ResourceCapError) as exc:
                rank_of_rows(rows)
            assert exc.value.cap == 2
        assert MAX_ENTRIES.get() == 1000
        # an inner block left by the cap's own exception
        with pytest.raises(ResourceCapError):
            with entry_cap(2):
                rank_of_rows(rows)
        assert MAX_ENTRIES.get() == 1000
        assert rank_of_rows(rows) == 3
    assert MAX_ENTRIES.get() == DEFAULT_MAX_ENTRIES


# ---------------------------------------------------------------------------
# oracle: the reduce of the previous design, which made the input primitive
# in a helper and stripped each combination in a second place


def _primitive(row):
    """The nonzero entries of a {col: int} row divided by their gcd.

    math.gcd rejects any entry that is not an int with TypeError.
    """
    out = {c: v for c, v in row.items() if v}
    g = gcd(*out.values())
    if g > 1:
        for c in out:
            out[c] //= g
    return out


class OldEliminator(Eliminator):
    def reduce(self, row):
        """Reduce a {col: int} row against the stored pivots.

        Returns the residual row, primitive and possibly empty, without
        storing it.
        """
        r = _primitive(row)
        while r:
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
            g2 = gcd(*new.values())
            if g2 > 1:
                for col in new:
                    new[col] //= g2
            r = new
        return r


def oracle_rows(seed, label):
    """Seeded rows over the labels label(0..7): random rows with zeros
    and negative entries, copies scaled by 2..6 (not primitive), and
    integer combinations of earlier rows (dependent)."""
    rng = random.Random(seed)
    rows = []
    for _ in range(24):
        kind = rng.randrange(3)
        if kind == 0 or not rows:
            row = {label(j): rng.randint(-4, 4)
                   for j in rng.sample(range(8), rng.randint(1, 5))}
        elif kind == 1:
            s = rng.randint(2, 6) * rng.choice((-1, 1))
            row = {c: s * v for c, v in rng.choice(rows).items()}
        else:
            row = {}
            for r in rng.sample(rows, min(len(rows), rng.randint(2, 3))):
                x = rng.randint(-3, 3)
                for c, v in r.items():
                    row[c] = row.get(c, 0) + x * v
        rows.append(row)
    return rows


LABELS = {"int": lambda j: j, "tuple": lambda j: (j % 2, (j, "x"))}


def _insert_all(e, rows):
    """add_row on each row in turn: the results, then the index of the
    row that hit the cap and the entries it reported (or None)."""
    out = []
    for i, row in enumerate(rows):
        try:
            out.append(e.add_row(row))
        except ResourceCapError as exc:
            return out, (i, exc.entries)
    return out, None


@pytest.mark.parametrize("label", sorted(LABELS))
@pytest.mark.parametrize("seed", range(12))
def test_reduce_matches_the_previous_design(seed, label):
    rows = oracle_rows(seed, LABELS[label])
    probes = oracle_rows(seed + 100, LABELS[label])
    new, old = Eliminator(), OldEliminator()
    assert _insert_all(new, rows) == _insert_all(old, rows)
    assert new.pivots == old.pivots
    assert new._entries == old._entries
    assert [new.reduce(r) for r in probes] == [old.reduce(r) for r in probes]
    # the rows are the hard case: some are not primitive on entry, and
    # some of those meet no pivot
    assert any(gcd(*(v for v in r.values() if v)) > 1 for r in rows)


@pytest.mark.parametrize("cap", [4, 9, 17, 22])
@pytest.mark.parametrize("seed", range(6))
def test_cap_aborts_match_the_previous_design(seed, cap):
    rows = oracle_rows(seed, LABELS["int"])
    with entry_cap(cap):
        new, old = Eliminator(), OldEliminator()
        got = _insert_all(new, rows)
        assert got == _insert_all(old, rows)
    assert new.pivots == old.pivots and new._entries == old._entries


def test_previous_design_rejects_the_same_float_rows():
    for row in ({0: 2, 1: 0.5}, {0: 2.0}):
        for cls in (Eliminator, OldEliminator):
            e = cls()
            e.add_row({0: 1, 1: 1})
            with pytest.raises(TypeError):
                e.add_row(row)
            with pytest.raises(TypeError):
                e.reduce({1: 1.5, 2: 3})


# ---------------------------------------------------------------------------
# add_shifted against add_row of the shifted rows


@st.composite
def primitive_rows(draw):
    """A primitive {int label: int} row with no zero entry."""
    row = draw(st.dictionaries(st.integers(0, 9),
                               st.integers(-6, 6).filter(bool),
                               min_size=1, max_size=5))
    g = gcd(*row.values())
    return {y: c // g for y, c in row.items()}


def _insert_shifted(e, rows, shifted):
    """Each (f, x) of rows in turn, by add_shifted or by add_row of the
    shifted dict: the results, then the index of the row that hit the cap
    and the entries and cap it reported (or None)."""
    out = []
    for i, (f, x) in enumerate(rows):
        try:
            if shifted:
                out.append(e.add_shifted(f, min(f), x))
            else:
                out.append(e.add_row({y + x: c for y, c in f.items()}))
        except ResourceCapError as exc:
            return out, (i, exc.entries, exc.cap)
    return out, None


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(primitive_rows(), st.integers(0, 6)),
                max_size=16),
       st.integers(1, 40))
def test_add_shifted_is_add_row_of_the_shifted_row(rows, cap):
    # a free least label stores the row as it stands, a taken one hands
    # it to add_row: same results, pivots in the same order, same rows
    # term for term, same stored entries and the same cap abort
    with entry_cap(cap):
        shifted, plain = Eliminator(), Eliminator()
        got = _insert_shifted(shifted, rows, True)
        assert got == _insert_shifted(plain, rows, False)
    assert [list(r.items()) for r in shifted.pivots.values()] \
        == [list(r.items()) for r in plain.pivots.values()]
    assert list(shifted.pivots) == list(plain.pivots)
    assert shifted._entries == plain._entries
