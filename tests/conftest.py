"""Shared helpers for the test suite, and the brute-force oracles that only
the tests compare the library against."""

import itertools
from fractions import Fraction

from dedstar.extvec import (
    POS_INF, SpectrumError, ValVector, ext_le, inf_support, top, vec_colon, vec_inf, ZERO)
from dedstar.extvec import _same_spectrum
from dedstar.moore import GuardError, mask_of
from dedstar.rationals import FracIdealSpec, padic_val
from dedstar.stars import apply


def pairwise_closure(subsets, n):
    """The subsets and the full set, closed by adding pairwise intersections
    until none is new: the definition of the generated family, as a sorted
    tuple."""
    family = set(subsets) | {(1 << n) - 1}
    while True:
        grown = family | {a & b for a in family for b in family}
        if grown == family:
            return tuple(sorted(family))
        family = grown


def pair_meets_by_definition(cands):
    """Bitmask of the meets d & e of every pair of distinct bits d, e of
    ``cands``, by a quadratic loop over the listed bits."""
    listed = [d for d in range(cands.bit_length()) if cands >> d & 1]
    relevant = 0
    for i, d in enumerate(listed):
        for e in listed[i + 1:]:
            relevant |= 1 << (d & e)
    return relevant


def hasse_by_definition(elements, leq):
    """Covers (i, j) of a preorder straight from the definition: i is strictly
    below j (i <= j and not j <= i), and no m is strictly between them."""
    k = len(elements)
    strictly_below = [
        {i for i in range(k) if i != j and leq(elements[i], elements[j])
         and not leq(elements[j], elements[i])}
        for j in range(k)
    ]
    covers = []
    for j in range(k):
        below = strictly_below[j]
        for i in below:
            if not any(i in strictly_below[m] for m in below if m != i):
                covers.append((i, j))
    return sorted(covers)


def iso_by_permutations(elements1, leq1, elements2, leq2):
    """Order isomorphism straight from the definition: some bijection, tried
    over all permutations, carries a <= b to exactly the pairs it relates."""
    k = len(elements1)
    if k != len(elements2):
        return False
    m1 = [[leq1(a, b) for b in elements1] for a in elements1]
    m2 = [[leq2(a, b) for b in elements2] for a in elements2]
    return any(all(m1[i][j] == m2[p[i]][p[j]] for i in range(k) for j in range(k))
               for p in itertools.permutations(range(k)))


def random_preorder(rng, k, blocks):
    """A random preorder on range(k) as a 0/1 matrix: a random partial order
    on ``blocks`` points, transitively closed, with each element placed on a
    random point, so elements on one point are tied.  With ``blocks`` >= k
    the points are distinct and it is a partial order."""
    below = [[a == b or (a < b and rng.random() < 0.4) for b in range(blocks)]
             for a in range(blocks)]
    for m in range(blocks):
        for a in range(blocks):
            if below[a][m]:
                for b in range(blocks):
                    if below[m][b]:
                        below[a][b] = True
    point = (rng.sample(range(blocks), k) if blocks >= k
             else [rng.randrange(blocks) for _ in range(k)])
    return [[below[point[a]][point[b]] for b in range(k)] for a in range(k)]


def windowed_vectors(primes, bound):
    """Every vector with entries in {-bound..bound, +inf}."""
    values = list(range(-bound, bound + 1)) + [POS_INF]
    return [
        ValVector(tuple(primes), entries)
        for entries in itertools.product(values, repeat=len(primes))
    ]


def preceq(f, g):
    """Domination preorder: identical +inf sets, and f <= g off a finite set.

    The inequality clause allows finitely many violations; on a finite prime
    list every violation set is finite, so the check reduces to +inf-support
    equality.
    """
    if f.primes != g.primes:
        raise SpectrumError(f"prime lists differ: {f.primes} vs {g.primes}")
    return inf_support(f) == inf_support(g)


DAGGER_MAX_N = 3
DAGGER_MAX_BOUND = 4
DAGGER_MAX_GENS = 4


def dagger_bounded_oracle(gens, primes, bound):
    """Literal closure of gens under domination and windowed infima.

    Materializes every vector with entries in {-bound..bound, +inf} dominated
    by some generator, then closes under pointwise infima of subsets
    (including the empty infimum, the all-+inf vector).  Independent of the
    support-family route, ``stars.dagger_supports``.
    """
    primes = tuple(primes)
    if len(primes) > DAGGER_MAX_N or bound > DAGGER_MAX_BOUND or len(gens) > DAGGER_MAX_GENS:
        raise GuardError(
            f"window guard: need n <= {DAGGER_MAX_N}, bound <= {DAGGER_MAX_BOUND}, "
            f"|gens| <= {DAGGER_MAX_GENS}"
        )
    result = {v for v in windowed_vectors(primes, bound)
              if any(preceq(v, g) for g in gens)}
    result.add(top(primes))
    frontier = list(result)
    while frontier:
        fresh = []
        for a in frontier:
            for b in result:
                m = vec_inf([a, b], primes)
                if m not in result and m not in fresh:
                    fresh.append(m)
        result.update(fresh)
        frontier = fresh
    return result


def finite_type_by_truncation(star, samples, bound):
    """Truncation oracle: closure must commute with exhausting +inf entries.

    Replaces +inf entries by the witnesses bound and bound+1; where the two
    closed truncations differ the supremum over all truncations is +inf, and
    by monotonicity two witnesses suffice (the closed support of a truncation
    does not depend on the witness).
    """
    for f in samples:
        direct = apply(star, f)
        trunc = []
        for k in (bound, bound + 1):
            entries = tuple(k if e is POS_INF else e for e in f.entries)
            trunc.append(apply(star, ValVector(f.primes, entries)))
        sup_entries = tuple(
            a if a == b else POS_INF for a, b in zip(trunc[0].entries, trunc[1].entries)
        )
        if ValVector(f.primes, sup_entries) != direct:
            return False
    return True


def frac_spec(primes, gens):
    """``FracIdealSpec`` from any prime sequence and generators that
    ``Fraction`` reads, such as "1/2"."""
    return FracIdealSpec(tuple(primes), tuple(gens))


def product_spec(I, J):
    """Generators of the product ideal: all pairwise generator products."""
    if I.primes != J.primes:
        raise ValueError("prime lists differ")
    return FracIdealSpec(I.primes, tuple(a * b for a in I.gens for b in J.gens))


def vector_by_definition(spec):
    """Entry p is -min v_p(g) over the generators, one ``padic_val`` call per
    (generator, prime) pair."""
    return ValVector(spec.primes, tuple(
        -min(padic_val(g, p) for g in spec.gens) for p in spec.primes))


def colon_by_definition(I, J):
    """(I : J) as the intersection of x^{-1} I over generators x of J: entry p
    is min over x of vI + v_p(x), with vI the entry of I's vector at p."""
    if I.primes != J.primes:
        raise ValueError("prime lists differ")
    vI = vector_by_definition(I).entries
    return ValVector(I.primes, tuple(
        min(vI[i] + padic_val(x, p) for x in J.gens) for i, p in enumerate(I.primes)))


def member_by_definition(f, r):
    """r is in the module with vector f when each entry e is +inf or
    -e <= v_p(r), with ``padic_val`` called once per finite entry."""
    r = Fraction(r)
    if r == 0:
        raise ValueError("membership test is for nonzero elements")
    return all(e is POS_INF or -e <= padic_val(r, p) for p, e in zip(f.primes, f.entries))


def vec_inf_pairwise(fs, primes):
    """Pointwise minimum folded one vector at a time from the top, building a
    ``ValVector`` for every step."""
    result = top(primes)
    for f in fs:
        _same_spectrum(result, f)
        result = ValVector(
            result.primes,
            tuple(a if ext_le(a, b) else b for a, b in zip(result.entries, f.entries)),
        )
    return result


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
