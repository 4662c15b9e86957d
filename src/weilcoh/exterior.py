"""Exterior algebra on omega_1, ..., omega_n with sign bookkeeping.

An index set I = {i_1 < ... < i_l} inside {1..n} is stored as a bitmask
(bit i-1 set means i is present), so every sign is a popcount of a masked
prefix and nothing is ever tabulated by hand.  The volume form is
omega_1 ^ ... ^ omega_n and the Hodge star is normalized by
omega_I ^ *(omega_I) = vol.
"""

from __future__ import annotations

__all__ = [
    "bits_of",
    "tuple_of",
    "wedge_bits",
    "star_bits",
    "contract_bits",
]


def bits_of(indices):
    """Bitmask of a strictly increasing tuple of positive indices."""
    bits = 0
    prev = 0
    for i in indices:
        if i <= prev:
            raise ValueError("indices must be strictly increasing and >= 1")
        bits |= 1 << (i - 1)
        prev = i
    return bits


def tuple_of(bits):
    """The increasing tuple encoded by a bitmask."""
    out = []
    i = 1
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return tuple(out)


def wedge_bits(a, b):
    """(sign, bits) of omega_a ^ omega_b; sign 0 when the masks overlap.

    The sign counts, for each element of b, the elements of a above it:
    each such pair is one transposition in the sorted merge.
    """
    if a & b:
        return 0, 0
    swaps = 0
    bb = b
    i = 0
    while bb >> i:
        if (bb >> i) & 1:
            swaps += (a >> (i + 1)).bit_count()
        i += 1
    return (-1) ** swaps, a | b


def star_bits(bits, n):
    """(sign, complement) with omega_I ^ (sign * omega_{I^c}) = vol."""
    comp = ~bits & ((1 << n) - 1)
    s, full = wedge_bits(bits, comp)
    assert full == (1 << n) - 1
    return s, comp


def contract_bits(alpha, bits):
    """(sign, bits) of the contraction against e_alpha: zero if absent,
    else (-1)^(position-1) with the index removed."""
    m = 1 << (alpha - 1)
    if not bits & m:
        return 0, 0
    pos = (bits & (m - 1)).bit_count()  # elements below alpha
    return (-1) ** pos, bits & ~m
