"""Hilbert series of complete intersections in plain Python, apart from
the package: the closed forms that test_golden, test_closed_forms,
test_acceptance, test_cli and test_koszul compare the package's tables
with, so that a fault in weilcoh.koszul.ci_hilbert cannot pass on both
sides of a comparison."""


def ci_series(weights, degrees, window):
    """Coefficients through t^window of prod_d (1 - t^d) / prod_w (1 - t^w):
    the Hilbert series of a complete intersection of the given degrees in
    variables of the given weights."""
    s = [int(t == 0) for t in range(window + 1)]
    for w in weights:
        for t in range(w, window + 1):
            s[t] += s[t - w]
    for d in degrees:
        for t in range(window, d - 1, -1):
            s[t] -= s[t - d]
    return s


def sk_weights(k):
    """The variables of S_k: the k(k+1)/2 rhat_ij of degree 2, the k
    what_j of degree 1."""
    return (2,) * (k * (k + 1) // 2) + (1,) * k
