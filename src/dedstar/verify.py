"""Checks of the paper's claims, shared by ``dedstar verify`` and the tests.

Each check returns its list of ``(name, ok)`` pairs.  The seeded generators
the sampled checks draw from live here too, so a seed names the same
samples wherever it is used.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, FrozenSet, List, Tuple

from . import extvec, moore, rationals, stars
from .extvec import POS_INF, ValVector

Check = Tuple[str, bool]

#: The axiom check samples stars from full enumerations up to this n.
AXIOM_MAX_N = 4
#: The sampled checks draw at most this many samples; they refuse more.
MAX_TRIALS = 10000


def random_vector(rng: random.Random, primes) -> ValVector:
    """Entries uniform in -10..10, each +inf with probability 0.3."""
    entries = tuple(
        POS_INF if rng.random() < 0.3 else rng.randint(-10, 10)
        for _ in primes
    )
    return ValVector(tuple(primes), entries)


def random_frac_spec(rng: random.Random) -> rationals.FracIdealSpec:
    """Random module of 1 to 3 generators, each a product of 2, 3 and 5 to
    exponents in -5..5."""
    primes = (2, 3, 5)
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = Fraction(1)
        for p in primes:
            g *= Fraction(p) ** rng.randint(-5, 5)
        gens.append(g)
    return rationals.FracIdealSpec(primes, tuple(gens))


def _largest_first(max_n: int) -> Dict[int, int]:
    """count_moore(k) for k = 1..max_n, largest first, so that a size guard
    refuses max_n before the smaller counts are spent."""
    return {k: moore.count_moore(k) for k in range(max_n, 0, -1)}


def table1(max_n: int) -> List[Check]:
    """The family counts for n = 1..max_n against the paper's table."""
    counts = _largest_first(max_n)
    checks = []
    for k in range(1, max_n + 1):
        got = counts[k]
        checks.append((f"count({k}) == {moore.KNOWN_COUNTS[k]}",
                       got == moore.KNOWN_COUNTS[k]))
    return checks


def _middle_layer_witness(n: int) -> bool:
    """Each set S of floor(n/2)-subsets generates a family whose
    floor(n/2)-subsets are exactly S: the injection behind the lower bound."""
    middle = [a for a in range(1 << n) if bin(a).count("1") == n // 2]
    layer = set(middle)
    for choice in range(1 << len(middle)):
        chosen = {a for i, a in enumerate(middle) if choice >> i & 1}
        if chosen != layer.intersection(moore.moore_generate(chosen, n).members):
            return False
    return True


def bounds(max_n: int) -> List[Check]:
    """2^C(n, floor(n/2)) <= count(n) <= 2^2^n for n = 1..max_n, and the
    lower bound's witness: 2^C(n, floor(n/2)) families with distinct middle
    layers."""
    counts = _largest_first(max_n)
    checks = []
    for k in range(1, max_n + 1):
        c = counts[k]
        checks.append((f"2^C({k},{k // 2}) <= count({k}) <= 2^2^{k}",
                       moore.binom_lower_bound(k) <= c <= 2 ** (2 ** k)))
    for k in range(1, max_n + 1):
        checks.append((f"each set S of {k // 2}-subsets of {{0..{k - 1}}} generates "
                       f"a family whose {k // 2}-subsets are S",
                       _middle_layer_witness(k)))
    return checks


def finite_type(n: int) -> List[Check]:
    """Exactly 2^n families are principal up-filters (finite-type stars)."""
    census = sum(map(moore.is_principal_upfilter, moore.enumerate_moore(n)))
    return [(f"finite-type census at n={n} equals 2^{n}", census == 2 ** n)]


def _missing_proper(family: moore.MooreFamily) -> FrozenSet[int]:
    """{c + 1 : c a proper subset not in the family}.  At every n this embeds
    the star order into inclusion: s <= t iff t's family lies inside s's."""
    return frozenset(c + 1 for c in range(family.full) if c not in family)


def n2_shape() -> List[Check]:
    """The 7 stars at n = 2 ordered like the cube on {1,2,3} minus {1}:
    ``_missing_proper`` maps them one to one onto it, with ``star_le`` exactly
    where the images are nested."""
    star_list = [stars.star_from_moore(f) for f in moore.enumerate_moore(2)]
    images = [_missing_proper(s.family) for s in star_list]
    cube = {frozenset(c + 1 for c in range(3) if mask >> c & 1) for mask in range(8)}
    ok = (len(set(images)) == len(images) and set(images) == cube - {frozenset({1})}
          and all(stars.star_le(s, t) == (a <= b) for s, a in zip(star_list, images)
                  for t, b in zip(star_list, images)))
    return [("star lattice at n=2 matches the cube minus one coatom", ok)]


def colon_oracle(trials: int, seed: int) -> List[Check]:
    """The rational colon oracle equals the vector colon on random pairs."""
    if trials > MAX_TRIALS:
        raise moore.GuardError(
            f"colon oracle check needs trials <= {MAX_TRIALS}; got trials={trials}")
    rng = random.Random(seed)
    bad = 0
    for _ in range(trials):
        spec_i = random_frac_spec(rng)
        spec_j = random_frac_spec(rng)
        via_vectors = extvec.vec_colon(
            rationals.vector_of_module(spec_i), rationals.vector_of_module(spec_j))
        if rationals.colon_oracle(spec_i, spec_j) != via_vectors:
            bad += 1
    return [(f"colon oracle equals vector colon on {trials} pairs", bad == 0)]


def axioms(trials: int, seed: int, max_n: int) -> List[Check]:
    """Closure, nucleus and residuation laws on random stars and vectors.

    Each sample draws n, a family, vectors f, g, h and a finite scale c, and
    checks that the star is extensive, idempotent, monotone, compatible with
    products, commutes with scaling, and that f*g <= h* iff f*g* <= h*.
    """
    if max_n > AXIOM_MAX_N or trials > MAX_TRIALS:
        raise moore.GuardError(
            f"axiom check needs max_n <= {AXIOM_MAX_N} and trials <= "
            f"{MAX_TRIALS}; got max_n={max_n}, trials={trials}")
    rng = random.Random(seed)
    pools = {k: list(moore.enumerate_moore(k)) for k in range(1, max_n + 1)}
    bad = 0
    for _ in range(trials):
        k = rng.randint(1, max_n)
        star = stars.star_from_moore(rng.choice(pools[k]))
        primes = star.primes
        f, g, h = (random_vector(rng, primes) for _ in range(3))
        fa, ga, ha = (stars.apply(star, v) for v in (f, g, h))
        ok = extvec.vec_le(f, fa) and stars.apply(star, fa) == fa
        if extvec.vec_le(f, g):
            ok = ok and extvec.vec_le(fa, ga)
        c = ValVector(primes, tuple(rng.randint(-5, 5) for _ in primes))
        ok = ok and stars.apply(star, extvec.scale(f, c)) == extvec.scale(fa, c)
        fg = extvec.vec_mul(f, g)
        ok = ok and stars.apply(star, extvec.vec_mul(fa, ga)) == stars.apply(star, fg)
        ok = ok and extvec.vec_le(fg, ha) == extvec.vec_le(extvec.vec_mul(f, ga), ha)
        if not ok:
            bad += 1
    return [(f"closure/nucleus axioms on {trials} samples", bad == 0)]
