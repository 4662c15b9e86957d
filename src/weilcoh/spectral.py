"""The spectral sequence of the polynomial-degree filtration.

After the regrading p = 2*ell - polydeg, q = polydeg - ell, the filtration
F^p C^ell = {polynomial degree <= 2*ell - p} is decreasing, preserved by
d, and bounded above (each F^p C^ell is finite dimensional once the
invariant complex is used).  The differential splits into bidegrees (0,1)
and (4,-3).

Pages are computed from the subspace formulas

    Z_r^{p,q} = ker( d : F^p C^{p+q} -> F^p C^{p+q+1} / F^{p+r} )
    B_r^{p,q} = d( F^{p-r+1} C^{p+q-1} ) cap F^p
    E_r^{p,q} ~ Z_r / (B_r + Z_{r-1}^{p+1,q-1})

with explicit representative bases over the ambient coordinates, so every
dimension is a rank of an assembled sparse matrix.  Z_r is exactly
computable; the only growing ingredient is the domain of B_r, which is
why E_infinity is certified by recomputation at larger r.

The stabilization bound is r(p) = 2n - p + 1: beyond it Z_r^{p,q} is the
full cocycle space of the cell.

Every space above is the direct sum of its parts in the torus weight
blocks of the complex (see fock), because d, the filtration and the
degree windows preserve the weight and the Z/B formulas are built from
spans and kernels of block-diagonal maps.  So each page dimension is a
sum over the weight blocks; column permutations make blocks in one
S_k-orbit isomorphic as filtered complexes, so only the dominant blocks
are computed, each counted orbit_size(mu) times.  The same holds for
E_1 and the graded differential d'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fock import cochain_weight, diff, direct_cohomology_dims, \
    invariant_family, orbit_size, weight_blocks
from .linalg import Eliminator, ResourceCapError, SparseRationalMatrix, \
    kernel_basis, resolve_max_entries, span_intersect_window

__all__ = [
    "regrade",
    "unregrade",
    "PageData",
    "SpectralComputer",
    "e1_dims",
    "einf_and_converge",
    "ConvergenceReport",
]


def regrade(ell, polydeg):
    """(ell, polynomial degree) -> (p, q) in the filtration bigrading."""
    return 2 * ell - polydeg, polydeg - ell


def unregrade(p, q):
    """(p, q) -> (ell, polynomial degree)."""
    return p + q, p + 2 * q


@dataclass
class PageData:
    r: int
    dims: dict = field(default_factory=dict)      # (p, q) -> dim


def _row_degree(key):
    bits, e = key
    return sum(e)


class SpectralComputer:
    """Precomputes the invariant families of dominant weight and their
    d-images once, then serves page dimensions for any r."""

    def __init__(self, ring, part, max_degree):
        self.ring = ring
        self.part = part
        self.D = max_degree
        n = ring.n
        self.maxdom = 2 * max_degree + 2 * n + 2
        # ell -> weight -> {deg: [(row, image row)]}
        self.blocks = {ell: {} for ell in range(n + 1)}
        # the stored representatives alone can exhaust memory long before
        # any single elimination does, so they share the entry cap
        cap = resolve_max_entries()
        stored = 0
        for ell in range(n + 1):
            for d in range(self.maxdom + 1):
                fam = invariant_family(ring, part, ell, (d,), dominant=True)
                for v in fam[d]:
                    row = v.to_row()
                    img = diff(v, "full").to_row()
                    stored += len(row) + len(img)
                    if stored > cap:
                        raise ResourceCapError(stored, cap)
                    self.blocks[ell].setdefault(cochain_weight(v), {}) \
                        .setdefault(d, []).append((row, img))

    def _pairs_upto(self, ell, mu, t):
        """(row, image-row) pairs of the weight-mu family at level ell,
        degree <= t."""
        if ell < 0 or ell > self.ring.n:
            return []
        block = self.blocks[ell].get(mu, {})
        out = []
        for d in range(0, min(t, self.maxdom) + 1):
            out.extend(block.get(d, ()))
        return out

    def z_dim(self, ell, mu, t, dx_bound):
        """dim { x in span(weight-mu family at ell, deg <= t) :
        deg(dx) <= dx_bound }."""
        pairs = self._pairs_upto(ell, mu, t)
        ev, eout = Eliminator(), Eliminator()
        for row, img in pairs:
            ev.add_row(row)
            eout.add_row({k: v for k, v in img.items()
                          if _row_degree(k) > dx_bound})
        return ev.rank - eout.rank

    def z_rows(self, ell, mu, t, dx_bound):
        """Explicit spanning rows of the same space."""
        pairs = self._pairs_upto(ell, mu, t)
        if not pairs:
            return []
        # coefficient-space kernel of the out-of-bound projection of d
        coords = {}
        for j, (_, img) in enumerate(pairs):
            for k, v in img.items():
                if _row_degree(k) > dx_bound:
                    coords.setdefault(k, {})[j] = v
        m = SparseRationalMatrix(len(coords), len(pairs))
        for ri, row in enumerate(coords.values()):
            for j, v in row.items():
                m.set(ri, j, v)
        out = []
        for c in kernel_basis(m):
            combined = {}
            for j, coef in c.items():
                for k, v in pairs[j][0].items():
                    nv = combined.get(k, 0) + coef * v
                    if nv:
                        combined[k] = nv
                    elif k in combined:
                        del combined[k]
            if combined:
                out.append(combined)
        return out

    def b_rows(self, ell, mu, t, dom_bound):
        """Basis rows of d(weight-mu family at ell-1, deg <= dom_bound)
        cap {deg <= t}."""
        if ell < 1:
            return []
        imgs = [img for _, img in self._pairs_upto(ell - 1, mu, dom_bound)
                if img]
        return span_intersect_window(imgs, lambda k: _row_degree(k) <= t)

    def cell_dim(self, p, q, r):
        """dim E_r^{p,q} by the Z/B formula, summed over the dominant
        weight blocks with their orbit sizes."""
        ell, t = unregrade(p, q)
        if ell < 0 or ell > self.ring.n or t < 0:
            return 0
        total = 0
        for mu in self.blocks[ell]:
            zdim = self.z_dim(ell, mu, t, t + 2 - r)
            if zdim == 0:
                continue
            denom = Eliminator()
            for row in self.b_rows(ell, mu, t, t - 3 + r):
                denom.add_row(row)
            # Z_{r-1} of the cell (p+1, q-1): degree <= t-1, same dx bound
            for row in self.z_rows(ell, mu, t - 1, t + 2 - r):
                denom.add_row(row)
            total += orbit_size(mu) * (zdim - denom.rank)
        return total

    def page(self, r):
        data = PageData(r)
        for ell in range(self.ring.n + 1):
            for t in range(self.D + 1):
                p, q = regrade(ell, t)
                dim = self.cell_dim(p, q, r)
                if dim:
                    data.dims[(p, q)] = dim
        return data


def e1_dims(ring, part, max_degree):
    """The E_1 page: cohomology of the graded differential d' per cell,
    from the dominant weight blocks counted with their orbit sizes."""
    n = ring.n
    blocks = {
        ell: weight_blocks(invariant_family(ring, part, ell,
                                            range(max_degree + 1),
                                            dominant=True))
        for ell in range(n + 1)
    }
    data = PageData(1)

    def rank_and_img_rank(ell, t):
        """Orbit-weighted ranks of the family at (ell, t) and of its
        d'-image."""
        if ell < 0 or ell > n or t < 0:
            return 0, 0
        rv = ri = 0
        for mu, block in blocks[ell].items():
            if t not in block:
                continue
            ev, ei = Eliminator(), Eliminator()
            for v in block[t]:
                ev.add_row(v.to_row())
                dv = diff(v, "graded")
                if dv:
                    ei.add_row(dv.to_row())
            mult = orbit_size(mu)
            rv += mult * ev.rank
            ri += mult * ei.rank
        return rv, ri

    cache = {}

    def get(ell, t):
        if (ell, t) not in cache:
            cache[(ell, t)] = rank_and_img_rank(ell, t)
        return cache[(ell, t)]

    for ell in range(n + 1):
        for t in range(max_degree + 1):
            rv, ri = get(ell, t)
            _, ri_below = get(ell - 1, t - 2)
            dim = rv - ri - ri_below
            if dim:
                data.dims[regrade(ell, t)] = dim
    return data


@dataclass
class ConvergenceReport:
    part: str
    max_degree: int
    r_max: int
    einf: PageData = None
    gr_dims: dict = field(default_factory=dict)       # (p, q) -> dim
    einf_stabilized: dict = field(default_factory=dict)
    gr_stabilized: dict = field(default_factory=dict)
    agreements: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.mismatches


def einf_and_converge(ring, part, max_degree, buffer=4):
    """Compute E_infinity on the window, compare with the filtration-graded
    direct cohomology, and report agreement cell by cell.

    E_r stabilizes once r exceeds r(p) = 2n - p + 1 for every cell of the
    window except for the growing domain of B_r; both effects are
    certified by recomputing at r + 2 and r + 4.
    """
    n, D = ring.n, max_degree
    comp = SpectralComputer(ring, part, D)
    p_min = regrade(0, D)[0]
    r_max = max(2, 2 * n - p_min + 1)
    pages = {r: comp.page(r) for r in (r_max, r_max + 2, r_max + 4)}

    rep = ConvergenceReport(part, D, r_max, einf=pages[r_max])

    gr = {}
    gr_stab = {}
    for ell in range(n + 1):
        dc = direct_cohomology_dims(ring, part, ell, D, buffer)
        for t in range(D + 1):
            cell = regrade(ell, t)
            if dc.dims[t]:
                gr[cell] = dc.dims[t]
            gr_stab[cell] = dc.stabilized[t]
    rep.gr_dims = gr
    rep.gr_stabilized = gr_stab

    for ell in range(n + 1):
        for t in range(D + 1):
            cell = regrade(ell, t)
            e_vals = [p.dims.get(cell, 0) for p in pages.values()]
            e_stab = e_vals[0] == e_vals[1] == e_vals[2]
            rep.einf_stabilized[cell] = e_stab
            g = gr.get(cell, 0)
            if not (e_stab and gr_stab.get(cell, False)):
                rep.inconclusive.append(cell)
            elif e_vals[0] == g:
                rep.agreements.append(cell)
            else:
                rep.mismatches.append((cell, e_vals[0], g))
    return rep
