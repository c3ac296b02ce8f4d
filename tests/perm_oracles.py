"""Permutations in one-line notation (1-based images) for the tests: every
permutation of r places, left-to-right composition, and a decomposition
into transpositions along the cycles.  The package builds place
permutations from adjacent transpositions only; these give the tests a
second word for each sigma and the products to check the action against.
"""

import itertools


def all_perms(r):
    return (tuple(p) for p in itertools.permutations(range(1, r + 1)))


def compose(first, then):
    """Left-to-right composition on places: result(k) = then(first(k))."""
    assert len(first) == len(then), "permutations act on different numbers of places"
    return tuple(then[f - 1] for f in first)


def cycle_decomposition(sigma):
    """General transpositions composing (left to right) to sigma.

    Each cycle (c1 c2 ... cl) contributes (c_{l-1}, c_l), ..., (c1, c2) in
    that order.
    """
    r = len(sigma)
    seen = [False] * r
    out = []
    for start in range(1, r + 1):
        if seen[start - 1]:
            continue
        cycle = [start]
        seen[start - 1] = True
        nxt = sigma[start - 1]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt - 1] = True
            nxt = sigma[nxt - 1]
        for a, b in zip(cycle[-2::-1], cycle[:0:-1]):
            out.append((min(a, b), max(a, b)))
    return out
