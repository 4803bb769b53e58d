"""Semistar operations on a finite-spectrum Dedekind domain.

A star is stored as the intersection-closed family of +inf supports of its
closed modules; the correspondence is order-reversing (bigger family, smaller
star).  Applying a star keeps a vector's finite entries and sets +inf on the
family-closure of its +inf support.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from .extvec import (
    POS_INF,
    ZERO,
    ExtInt,
    ModuleVector,
    SpectrumError,
    ValVector,
    ZeroModuleError,
    inf_support,
    iota,
    top,
    vec_colon,
    vec_inf,
    vec_mul,
)
from .moore import (
    GuardError,
    MooreFamily,
    closure,
    family_join,
    family_meet,
    indices_of,
    is_principal_upfilter,
    mask_of,
    moore_generate,
)


@dataclass(frozen=True)
class Star:
    """A semistar operation over an ordered prime list."""

    primes: Tuple[Hashable, ...]
    family: MooreFamily

    def __post_init__(self) -> None:
        if len(self.primes) != self.family.n:
            raise SpectrumError("spectrum length does not match family ground set")
        if len(set(self.primes)) != len(self.primes):
            raise SpectrumError("duplicate primes")

    @property
    def n(self) -> int:
        return self.family.n


def default_primes(n: int) -> Tuple[int, ...]:
    return tuple(range(n))


def star_from_moore(family: MooreFamily, primes: Optional[Sequence[Hashable]] = None) -> Star:
    if primes is None:
        primes = default_primes(family.n)
    return Star(tuple(primes), family)


def _require_nonzero(f: ModuleVector) -> ValVector:
    if f is ZERO:
        raise ZeroModuleError("semistar operations act on nonzero modules only")
    return f


def _support_mask(f: ValVector) -> int:
    return mask_of(inf_support(f), f.n)


def apply(star: Star, f: ModuleVector) -> ValVector:
    """Least star-closed vector above f.

    The result is +inf on the family-closure of f's +inf support and keeps
    f's finite entries elsewhere.
    """
    f = _require_nonzero(f)
    if f.primes != star.primes:
        raise SpectrumError("vector spectrum does not match star spectrum")
    closed_support = closure(star.family, _support_mask(f))
    entries = tuple(
        POS_INF if closed_support >> i & 1 else e for i, e in enumerate(f.entries)
    )
    return ValVector(f.primes, entries)


def is_closed(star: Star, f: ModuleVector) -> bool:
    f = _require_nonzero(f)
    if f.primes != star.primes:
        raise SpectrumError("vector spectrum does not match star spectrum")
    return _support_mask(f) in star.family


def star_le(s1: Star, s2: Star) -> bool:
    """Star order: s1 <= s2 iff every s2-closed module is s1-closed."""
    if s1.primes != s2.primes:
        raise SpectrumError("spectra differ")
    return set(s2.family.members) <= set(s1.family.members)


def _combine(stars: Sequence[Star], family_op: Callable, what: str) -> Star:
    """Reduce the stars' families with family_op over one shared spectrum."""
    if not stars:
        raise ValueError(f"{what} of no stars is undefined")
    if any(s.primes != stars[0].primes for s in stars):
        raise SpectrumError("spectra differ")
    return Star(stars[0].primes, functools.reduce(family_op, (s.family for s in stars)))


def star_meet(stars: Sequence[Star]) -> Star:
    """Pointwise-intersection star: join of the support families."""
    return _combine(stars, family_join, "meet")


def star_join(stars: Sequence[Star]) -> Star:
    """Least star above all inputs: meet of the support families."""
    return _combine(stars, family_meet, "join")


def identity_star(primes: Sequence[Hashable]) -> Star:
    n = len(primes)
    full_powerset = MooreFamily(n, tuple(range(1 << n)))
    return Star(tuple(primes), full_powerset)


def trivial_extension(primes: Sequence[Hashable]) -> Star:
    n = len(primes)
    return Star(tuple(primes), MooreFamily(n, ((1 << n) - 1,)))


def dagger_supports(gens: Iterable[ValVector], primes: Sequence[Hashable]) -> MooreFamily:
    """Support family of the smallest closed-module class containing gens."""
    primes = tuple(primes)
    n = len(primes)
    masks = set()
    for g in gens:
        if g.primes != primes:
            raise SpectrumError("generator spectrum mismatch")
        masks.add(_support_mask(g))
    return moore_generate(masks, n)


DAGGER_MAX_N = 3
DAGGER_MAX_BOUND = 4
DAGGER_MAX_GENS = 4


def dagger_bounded_oracle(
    gens: Sequence[ValVector], primes: Sequence[Hashable], bound: int
) -> Set[ValVector]:
    """Literal closure of gens under domination and windowed infima.

    Materializes every vector with entries in {-bound..bound, +inf} dominated
    by some generator, then closes under pointwise infima of subsets
    (including the empty infimum, the all-+inf vector).  Independent of the
    support-family route.
    """
    primes = tuple(primes)
    n = len(primes)
    if n > DAGGER_MAX_N or bound > DAGGER_MAX_BOUND or len(gens) > DAGGER_MAX_GENS:
        raise GuardError(
            f"window guard: need n <= {DAGGER_MAX_N}, bound <= {DAGGER_MAX_BOUND}, "
            f"|gens| <= {DAGGER_MAX_GENS}"
        )
    values: List[ExtInt] = list(range(-bound, bound + 1)) + [POS_INF]
    window = [
        ValVector(primes, entries)
        for entries in itertools.product(values, repeat=n)
    ]
    gen_supports = {inf_support(g) for g in gens if g.primes == primes}
    if any(g.primes != primes for g in gens):
        raise SpectrumError("generator spectrum mismatch")
    # Domination on a finite prime list reduces to +inf-support equality.
    dominated = {v for v in window if inf_support(v) in gen_supports}
    result: Set[ValVector] = set(dominated)
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


def v_of(j: ModuleVector) -> Star:
    """Divisorial closure with respect to the module with vector j.

    When the inner colon is the zero module the outer colon is taken to be
    the whole quotient field; with that convention the star is classified by
    the family generated by j's +inf support.
    """
    j = _require_nonzero(j)
    family = moore_generate({_support_mask(j)}, j.n)
    return Star(j.primes, family)


def v_apply_by_colon(j: ValVector, f: ValVector) -> ValVector:
    """Direct (j : (j : f)) computation; oracle for v_of + apply."""
    inner = vec_colon(j, f)
    if inner is ZERO:
        return top(j.primes)
    outer = vec_colon(j, inner)
    if outer is ZERO:
        return top(j.primes)
    return outer


#: Largest index set d_of_overring takes: its star has 2^|X| members.
D_OF_GUARD = 16


def d_of_overring(primes: Sequence[Hashable], localized_at: Iterable[int]) -> Star:
    """Multiplication by the overring cut out by the given prime indices.

    The empty index set gives the whole quotient field, hence the trivial
    extension; the full set gives the base ring, hence the identity star.
    The family is the up-filter above the complement of the index set X.
    """
    primes = tuple(primes)
    n = len(primes)
    if n < 1:
        raise SpectrumError("empty spectrum: the ring would be a field")
    x_mask = mask_of(localized_at, n)
    if bin(x_mask).count("1") > D_OF_GUARD:
        raise GuardError(f"overring star on more than {D_OF_GUARD} localized primes")
    base = ((1 << n) - 1) & ~x_mask
    members, s = [base], 0
    while s != x_mask:  # the subsets of X, ascending
        s = (s - x_mask) & x_mask
        members.append(base | s)
    # An up-filter with the full set is intersection-closed: skip the check.
    return Star(primes, MooreFamily._trusted(n, tuple(members)))


def d_apply_direct(star_base_complement: Iterable[int], f: ValVector) -> ValVector:
    """Overring-multiplication oracle: f times the indicator of the base."""
    result = vec_mul(f, iota(f.primes, star_base_complement))
    assert result is not ZERO
    return result


def is_finite_type(star: Star) -> bool:
    """Finite-type stars are exactly those whose family is a principal up-filter."""
    ok, _base = is_principal_upfilter(star.family)
    return ok


def finite_type_by_truncation(star: Star, samples: Iterable[ValVector], bound: int) -> bool:
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


def classify(star: Star) -> List[str]:
    """Human-readable labels for reporting."""
    labels = []
    n = star.n
    is_identity = len(star.family.members) == 1 << n
    is_trivial = len(star.family.members) == 1
    if is_identity:
        labels.append("identity")
    if is_trivial:
        labels.append("trivial-extension")
    upfilter, base = is_principal_upfilter(star.family)
    if upfilter:
        labels.append("finite-type")
    if not is_identity and not is_trivial and len(star.family.members) - 1 <= 2:
        labels.append("divisorially-generated")
    if upfilter:
        x = ((1 << n) - 1) & ~base
        labels.append(f"overring-induced X={{{','.join(map(str, indices_of(x)))}}}")
    return labels


def star_to_record(star: Star) -> dict:
    from .moore import family_to_record

    return {"primes": list(star.primes), "family": family_to_record(star.family)}


def star_from_record(record: dict) -> Star:
    from .moore import family_from_record

    return Star(tuple(record["primes"]), family_from_record(record["family"]))
