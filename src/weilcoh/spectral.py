"""The spectral sequence of the polynomial-degree filtration.

The paper writes its cells E_r^{p,q} after the regrading p = 2*ell - t,
q = t - ell (t the polynomial degree, regrade): the filtration
F^p C^ell = {polynomial degree <= 2*ell - p} is decreasing, preserved by
d, and bounded above (each F^p C^ell is finite dimensional once the
invariant complex is used), and the differential splits into bidegrees
(0,1) and (4,-3).  Every page here is keyed by the cell's (ell, t)
instead, the coordinates of the tables; the weilcoh/1 documents list the
cells in (p, q) order.

Pages are computed from the subspace formulas

    Z_r^{p,q} = ker( d : F^p C^{p+q} -> F^p C^{p+q+1} / F^{p+r} )
    B_r^{p,q} = d( F^{p-r+1} C^{p+q-1} ) cap F^p
    E_r^{p,q} ~ Z_r / (B_r + Z_{r-1}^{p+1,q-1})

with explicit spanning rows over the ambient coordinates: B_r and
Z_{r-1}^{p+1,q-1} both lie in Z_r, so dim E_r is the rank Z_r adds over
B_r + Z_{r-1}, rank(Z_r rows) - rank(B_r rows + Z_{r-1} rows).

e1_dims reads E_1 off the graded differential d' instead, independently
of the Z/B formulas: d' = -d2 (d2 the degree-raising piece of d), so
its ranks are those of d2.  For k < n the m . Phi_J and m . *Phi_J (m
an S_k monomial, J increasing) are a basis of the invariant cochains
(the paper's theorem), and on that basis d2 has the closed form

    d2(m Phi_J)  = -sum_{i not in J} (-1)^#{j in J : j < i}
                       (what_i m) Phi_{J + i},
    d2(m *Phi_J) = -sum_{j in J} (-1)^(p_j + |J| + 1) (c_j m) *Phi_{J - j},

c_j = sum_i rhat(i,j) what(i) and p_j the 0-based position of j in J:
the Koszul differential over S_k of what_1..what_k, raising |J|, on the
+1 part, and of c_1..c_k, lowering |J|, on the -1 part.  Both sequences
are regular, by the leading-term proof of the fock docstring, so each
Koszul complex is exact except at its end, and E_1 is that end:
S_k/(what) on level k, shifted by the degree k of Phi_{1..k}, and
S_k/(c) on level n, with no shift, from *Phi_{} (J empty).  e1_dims
reads both off the last entry of the koszul prefix tables of the named
models w and c, with no Fock polynomial, and reads the regularity
certificate off the same tables.  The certificate covers the quotient's
own window; the zero cells below the top level rest on the same proof,
just as every stabilized cell rests on the descent lemma, and the tests
compute those zeros.  For k >= n the families are evaluated and
differentiated in the Fock ring: they are dependent for k > n, and the
theorem does not cover k = n.

Truncation.  In polynomial degree, Z_r of the cell (ell, t) asks
deg(dx) <= t + 2 - r, and the domain of B_r is level ell - 1 through
degree t - 3 + r.  The descent lemma of fock (every coboundary inside
degree <= t is d of a cochain of degree <= t - 2, because E_1 vanishes
at every domain level, by the leading-term certificate stated there)
gives B_r = B_1 for every r >= 1, and Z_r is the full cocycle space of
the cell once r > t + 2.  So the pages of a window through degree D
need the cells through degree D only, and E_r for r > D + 2 is
E_infinity.

Every space above is the direct sum of its parts in the torus weight
blocks of the complex (see fock), because d, the filtration and the
degree windows preserve the weight and the Z/B formulas are built from
spans and kernels of block-diagonal maps.  So each page dimension is a
sum over the weight blocks; column permutations make blocks in one
S_k-orbit isomorphic as filtered complexes, so only the dominant blocks
are computed, each counted orbit_size(mu) times.  The same holds for
E_1 and d2; there the rows of a cell's blocks have disjoint columns, so
the Fock route of e1_dims eliminates all the blocks of a cell in one
Eliminator and counts each row that raises the rank with its block's
orbit size, its rows and d2 images on the packed labels of fock too.

A pages call (einf_and_converge) keeps one store of rows, its
SpectralComputer: the (row, image row) pairs of every dominant family
through degree D, built one level at a time by fock.dominant_rows, the
builder that also streams the rows of cohom, and kept in the shape it
returns.  The direct filtered cohomology it is compared with reads the
same store, so each family and its image are built once per call.
"""

from __future__ import annotations

from .fock import Cochain, degree_reader, diff, direct_cohomology_dims, \
    dominant_rows, invariant_family
from .koszul import ideal_quotient_dims, named_sequence, \
    regular_sequence_check
from .linalg import MAX_ENTRIES, Eliminator, ResourceCapError, \
    SparseRationalMatrix, combination, kernel_basis, rank_of_rows, \
    span_intersect_window
from .polyring import orbit_size

__all__ = [
    "regrade",
    "SpectralComputer",
    "e1_dims",
    "einf_and_converge",
    "ConvergenceReport",
    "IrregularSequenceError",
]


class IrregularSequenceError(RuntimeError):
    """A Koszul table of e1_dims failed its regularity certificate: the
    named model (w or c), the table's window and the failure degrees."""

    def __init__(self, model, window, failures):
        self.model = model
        self.window = window
        self.failures = failures
        super().__init__("E_1 model %s: the sequence is not regular, "
                         "failure degrees %s" % (model, failures))


def regrade(ell, polydeg):
    """(ell, polynomial degree) -> (p, q) in the filtration bigrading."""
    return 2 * ell - polydeg, polydeg - ell


class SpectralComputer:
    """The store of one pages call: blocks[ell][weight][degree], the
    (row, image row) pairs of the dominant invariant families through
    degree max_degree, each level one fock.dominant_rows call with its
    pairs read into lists, their label degrees read by fock.degree_reader.
    It serves page dimensions for any r, and the direct route of the same
    call takes blocks as its store."""

    def __init__(self, ring, part, max_degree):
        self.ring = ring
        self.D = max_degree
        self.degree = degree_reader(ring, max_degree)
        # the stored rows alone can exhaust memory long before any single
        # elimination does, so they share the entry cap (charged per list)
        cap = MAX_ENTRIES.get()
        stored = 0
        self.blocks = {}
        for ell in range(ring.n + 1):
            level = self.blocks[ell] = dominant_rows(
                ring, part, ell, range(max_degree + 1))
            for block in level.values():
                for d, pairs in block.items():
                    pairs = block[d] = list(pairs)
                    stored += sum(len(row) + len(img) for row, img in pairs)
                    if stored > cap:
                        raise ResourceCapError(stored, cap)

    def _pairs_upto(self, ell, mu, t):
        """(row, image-row) pairs of the weight-mu family at level ell,
        degree <= t, in degree order, the order of every stored block."""
        block = self.blocks.get(ell, {}).get(mu, {})
        return [pair for d, pairs in block.items() if d <= t for pair in pairs]

    def z_rows(self, ell, mu, t, dx_bound):
        """Spanning rows of { x in span(weight-mu family at ell, deg <= t) :
        deg(dx) <= dx_bound }, the combinations of the family by a kernel
        basis of the out-of-bound part of d, whose column j is the part of
        pair j's image above the bound; they span the space also when the
        family is dependent (k > n)."""
        pairs = self._pairs_upto(ell, mu, t)
        if not pairs:
            return []
        m = SparseRationalMatrix([
            {x: v for x, v in img.items() if self.degree(x) > dx_bound}
            for _, img in pairs])
        rows = [row for row, _ in pairs]
        return [x for x in (combination(c, rows) for c in kernel_basis(m))
                if x]

    def b_rows(self, ell, mu, t, dom_bound):
        """Basis rows of d(weight-mu family at ell-1, deg <= dom_bound)
        cap {deg <= t}."""
        return span_intersect_window(
            [img for _, img in self._pairs_upto(ell - 1, mu, dom_bound)],
            lambda x: self.degree(x) <= t)

    def cell_dim(self, ell, t, r):
        """dim E_r of the cell (ell, t) by the Z/B formula, summed over the
        dominant weight blocks with their orbit sizes."""
        total = 0
        for mu in self.blocks[ell]:
            z = self.z_rows(ell, mu, t, t + 2 - r)
            if not z:
                continue
            # B_r and Z_{r-1} of the cell (ell, t - 1) (E_{r-1}^{p+1,q-1};
            # same dx bound) both lie in Z_r
            denom = self.b_rows(ell, mu, t, t - 3 + r) \
                + self.z_rows(ell, mu, t - 1, t + 2 - r)
            total += orbit_size(mu) * (rank_of_rows(z) - rank_of_rows(denom))
        return total

    def page(self, r):
        """{(ell, t): dim} of the nonzero cells of E_r."""
        data = {}
        for ell in range(self.ring.n + 1):
            for t in range(self.D + 1):
                dim = self.cell_dim(ell, t, r)
                if dim:
                    data[ell, t] = dim
        return data


def e1_dims(ring, part, max_degree):
    """The E_1 page {(ell, t): dim} of its nonzero cells: cohomology of the
    graded differential d' = -d2 per cell.  part is plus, minus or full.

    For k < n the m . Phi_J and m . *Phi_J are a basis (the paper's
    theorem), on which d2 is the Koszul differential over S_k of
    what_1..what_k (+1 part, raising |J|) and of c_1..c_k (-1 part,
    lowering |J|).  Both sequences are regular (fock docstring), so each
    complex is exact except at its end: the page is S_k/(what) on level
    k, shifted by degree k (from Phi_{1..k}), and S_k/(c) on level n,
    with no shift (from *Phi_{}), as the module docstring states.  Both
    are the last entry of koszul.ideal_quotient_dims for the named
    models w and c; the regularity certificate read off the same table
    covers the quotient's own window, and a failure raises
    IrregularSequenceError, a RuntimeError.

    For k >= n the families are evaluated and differentiated in the Fock
    ring (_e1_fock): they are dependent for k > n, and the basis theorem
    does not cover k = n.  Each cell eliminates the rows of all its
    dominant blocks in one Eliminator, and a row that raises the rank
    adds its block's orbit size.  This is the sum of the block ranks: d2
    preserves the torus weight, so the rows of different blocks, and
    their images, have disjoint columns, and a row of one block is only
    ever reduced against pivot rows of the same block.
    """
    if part not in ("plus", "minus", "full"):
        raise ValueError("part must be plus, minus or full")
    n, k = ring.n, ring.k
    if k >= n:
        return _e1_fock(ring, part, max_degree)
    page = {}
    if part != "minus":
        for t, dim in _koszul_quotient("w", n, k, max_degree - k).items():
            page[k, t + k] = dim
    if part != "plus":
        for t, dim in _koszul_quotient("c", n, k, max_degree).items():
            page[n, t] = dim
    return {cell: dim for cell, dim in page.items() if dim}


def _koszul_quotient(model, n, k, window):
    """{t: dim (S_k / (f_1, ..., f_k))_t} for t <= window, the last entry
    of the prefix table of the named sequence, after the regularity
    certificate read off the same table has passed."""
    spec = named_sequence(model, n, k)
    hilb = ideal_quotient_dims(spec, window)
    failures = [t for t in regular_sequence_check(spec, hilb).failure_degree
                if t is not None]
    if failures:
        raise IrregularSequenceError(model, window, failures)
    return hilb[-1]


def _e1_fock(ring, part, max_degree):
    """e1_dims on the Fock route, for every (n, k): the orbit-weighted
    ranks of the rows of the dominant families and of their d2 images,
    one Eliminator each per cell, fed the (weight, row) pairs of
    invariant_family in family order (see e1_dims); each row is read as a
    cochain for its diff (Cochain.from_row), its d2 image flattened back
    (to_row).  One level is built at a time; the cell (ell, t) loses the
    image of the cell (ell - 1, t - 2) below it, which is kept."""
    img_rank = {}  # (ell, t) -> orbit-weighted rank of the d2-image
    data = {}
    for ell in range(ring.n + 1):
        family = invariant_family(ring, part, ell, range(max_degree + 1),
                                  dominant=True)
        for t, pairs in family.items():
            rv = ri = 0
            ev, ei = Eliminator(), Eliminator()
            for mu, row in pairs:
                mult = orbit_size(mu)
                if ev.add_row(row):
                    rv += mult
                v = Cochain.from_row(ring, ell, row, max_degree)
                if ei.add_row(diff(v, "d2").to_row(max_degree)):
                    ri += mult
            img_rank[ell, t] = ri
            dim = rv - ri - img_rank.get((ell - 1, t - 2), 0)
            if dim:
                data[ell, t] = dim
    return data


class ConvergenceReport:
    def __init__(self, r_max, einf, gr_dims):
        self.r_max = r_max
        self.einf = einf  # (ell, t) -> dim
        self.gr_dims = gr_dims  # (ell, t) -> dim
        self.agreements = 0  # the number of agreeing cells
        self.mismatches = []

    @property
    def ok(self):
        return not self.mismatches


def einf_and_converge(ring, part, max_degree):
    """Compute E_infinity on the window, compare with the filtration-graded
    direct cohomology, and report agreement cell by cell.

    One page is computed, E_r at r = r_max = 2n + max_degree + 1.  Z_r is
    the full cocycle space of every cell once r > t + 2, and B_r = B_1
    for every r >= 1 by the descent lemma of fock (every coboundary
    inside degree <= t is d of a cochain of degree <= t - 2; its
    hypothesis, E_1 = 0 at every domain level, holds by the leading-term
    certificate stated there).  So E_{r_max} is E_infinity, and the
    store holds the cells through max_degree only.  The direct route
    reads its rows from the pages' store, so each family is built once.
    """
    n, D = ring.n, max_degree
    comp = SpectralComputer(ring, part, D)
    gr = {}
    for ell in range(n + 1):
        dc = direct_cohomology_dims(ring, part, ell, D, store=comp.blocks)
        gr.update(((ell, t), dim) for t, dim in dc.items() if dim)

    r_max = 2 * n + D + 1
    rep = ConvergenceReport(r_max, einf=comp.page(r_max), gr_dims=gr)
    for ell in range(n + 1):
        for t in range(D + 1):
            cell = ell, t
            e, g = rep.einf.get(cell, 0), gr.get(cell, 0)
            if e == g:
                rep.agreements += 1
            else:
                rep.mismatches.append((cell, e, g))
    return rep
