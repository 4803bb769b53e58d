"""Shared helpers for the test suite."""

import itertools

from dedstar.extvec import POS_INF, ValVector, inf_support, vec_colon, vec_inf, ZERO
from dedstar.moore import mask_of


def windowed_vectors(primes, bound):
    """Every vector with entries in {-bound..bound, +inf}."""
    values = list(range(-bound, bound + 1)) + [POS_INF]
    return [
        ValVector(tuple(primes), entries)
        for entries in itertools.product(values, repeat=len(primes))
    ]


def closed_windowed_set(member_masks, primes, bound):
    """Windowed vectors whose +inf support lies in the given mask set."""
    n = len(primes)
    masks = set(member_masks)
    return {
        v for v in windowed_vectors(primes, bound)
        if mask_of(inf_support(v), n) in masks
    }


def violates_closed_family_conditions(member_masks, primes, bound):
    """Check the closed-module characterization on a windowed vector set.

    Returns a reason string if the induced set fails one of: containing the
    empty intersection (the top vector), closure under pointwise minima, or
    closure under colon by arbitrary windowed vectors (zero results exempt);
    None if all hold.
    """
    from dedstar.extvec import top

    vectors = closed_windowed_set(member_masks, primes, bound)
    if top(primes) not in vectors:
        return "missing top (empty intersection)"
    vec_list = sorted(vectors, key=lambda v: str(v.entries))
    for a in vec_list:
        for b in vec_list:
            if vec_inf([a, b], a.primes) not in vectors:
                return f"minimum of {a.entries} and {b.entries} escapes"
    for a in vec_list:
        for b in windowed_vectors(primes, bound):
            c = vec_colon(a, b)
            if c is ZERO:
                continue
            if all(_in_window(e, 2 * bound) for e in c.entries) and \
                    _support_only(c, vectors) is False:
                return f"colon of {a.entries} by {b.entries} escapes"
    return None


def _in_window(entry, bound):
    return entry is POS_INF or -bound <= entry <= bound


def _support_only(vector, closed_set):
    from dedstar.moore import mask_of

    masks = {mask_of(inf_support(v), v.n) for v in closed_set}
    return mask_of(inf_support(vector), vector.n) in masks
