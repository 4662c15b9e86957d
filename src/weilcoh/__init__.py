"""weilcoh: exact computation of relative Lie algebra cohomology of so(n,1)
with polynomial Fock-model coefficients.

Submodules:
    linalg    -- sparse exact integer linear algebra (ranks, kernels, spans)
    polyring  -- sparse multivariate polynomials, distinguished generators
    exterior  -- exterior algebra on n generators, Hodge star, signs
    fock      -- the relative cochain complex, differentials, named cochains
    koszul    -- regular sequences, ideal quotients, Hilbert series
    spectral  -- the polynomial-degree spectral sequence
    verify    -- bundled randomized verification suites
    cli       -- command line front end
"""

__version__ = "0.1.0"
