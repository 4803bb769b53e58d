"""Semistar operations on a finite-spectrum Dedekind domain.

A star is stored as the intersection-closed family of +inf supports of its
closed modules; the correspondence is order-reversing (bigger family, smaller
star).  Applying a star keeps a vector's finite entries and sets +inf on the
family-closure of its +inf support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, List, Sequence, Tuple

from .extvec import (
    POS_INF,
    ZERO,
    ModuleVector,
    SpectrumError,
    ValVector,
    ZeroModuleError,
    iota,
    top,
    vec_colon,
    vec_mul,
)
from .moore import (
    GuardError,
    MooreFamily,
    closure,
    family_from_record,
    family_join,
    family_meet,
    guard_ground_set,
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


def star_from_moore(family: MooreFamily) -> Star:
    return Star(default_primes(family.n), family)


def _require_nonzero(f: ModuleVector) -> ValVector:
    if f is ZERO:
        raise ZeroModuleError("semistar operations act on nonzero modules only")
    return f


def _on_spectrum(star: Star, f: ModuleVector) -> ValVector:
    """f, once it is a nonzero module over the star's spectrum."""
    f = _require_nonzero(f)
    if f.primes != star.primes:
        raise SpectrumError("vector spectrum does not match star spectrum")
    return f


def _support_mask(f: ValVector) -> int:
    """Bitmask of the indices where f is +inf, read from its entries."""
    mask = 0
    for i, e in enumerate(f.entries):
        if e is POS_INF:
            mask |= 1 << i
    return mask


def apply(star: Star, f: ModuleVector) -> ValVector:
    """Least star-closed vector above f.

    The result is +inf on the family-closure of f's +inf support and keeps
    f's finite entries elsewhere.
    """
    f = _on_spectrum(star, f)
    closed_support = closure(star.family, _support_mask(f))
    entries = tuple(
        POS_INF if closed_support >> i & 1 else e for i, e in enumerate(f.entries)
    )
    return ValVector(f.primes, entries)


def is_closed(star: Star, f: ModuleVector) -> bool:
    f = _on_spectrum(star, f)
    return _support_mask(f) in star.family


def star_le(s1: Star, s2: Star) -> bool:
    """Star order: s1 <= s2 iff every s2-closed module is s1-closed, that is
    iff s2's family lies inside s1's.  Compares the families' cached
    ``member_set`` indices, so each family's set is built once."""
    if s1.primes != s2.primes:
        raise SpectrumError("spectra differ")
    return s2.family.member_set <= s1.family.member_set


def _combine(stars: Sequence[Star], family_op: Callable, what: str) -> Star:
    """family_op over every star's family at once, on one shared spectrum."""
    if not stars:
        raise ValueError(f"{what} of no stars is undefined")
    if any(s.primes != stars[0].primes for s in stars):
        raise SpectrumError("spectra differ")
    return Star(stars[0].primes, family_op(*(s.family for s in stars)))


def star_meet(stars: Sequence[Star]) -> Star:
    """Pointwise-intersection star: join of the support families."""
    return _combine(stars, family_join, "meet")


def star_join(stars: Sequence[Star]) -> Star:
    """Least star above all inputs: meet of the support families."""
    return _combine(stars, family_meet, "join")


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


def v_of(j: ModuleVector) -> Star:
    """Divisorial closure with respect to the module with vector j.

    When the inner colon is the zero module the outer colon is taken to be
    the whole quotient field; with that convention the star's family is the
    support family of the closure of j alone, ``dagger_supports([j])``."""
    j = _require_nonzero(j)
    return Star(j.primes, dagger_supports([j], j.primes))


def v_apply_by_colon(j: ValVector, f: ValVector) -> ValVector:
    """Direct (j : (j : f)) computation; oracle for v_of + apply."""
    inner = vec_colon(j, f)
    if inner is ZERO:
        return top(j.primes)
    # A nonzero inner colon is +inf exactly where j is, so this never vanishes.
    return vec_colon(j, inner)


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
    guard_ground_set(n)  # as on every other path that builds a family
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


def classify(star: Star) -> List[str]:
    """Human-readable labels for reporting, by the star's support family F:

    - ``identity``: F is every subset;
    - ``trivial-extension``: F is only the full set (the star sends every
      module to the quotient field);
    - ``finite-type``: F is a principal up-filter, all supersets of one base;
    - ``divisorially-generated``: F has 2 or 3 members and the star is not the
      identity.  This counts members only: it does not say that the star is
      ``v_of(J)`` for some J;
    - ``overring-induced X={...}``: with ``finite-type``; the star is
      ``d_of_overring`` localized at X, the primes outside the base.
    """
    labels = []
    n = star.n
    is_identity = len(star.family.members) == 1 << n
    is_trivial = len(star.family.members) == 1
    if is_identity:
        labels.append("identity")
    if is_trivial:
        labels.append("trivial-extension")
    upfilter = is_principal_upfilter(star.family)
    if upfilter:
        labels.append("finite-type")
    if not is_identity and not is_trivial and len(star.family.members) - 1 <= 2:
        labels.append("divisorially-generated")
    if upfilter:
        x = ((1 << n) - 1) & ~star.family.members[0]
        labels.append(f"overring-induced X={{{','.join(map(str, indices_of(x)))}}}")
    return labels


def star_from_record(record: dict) -> Star:
    primes = record["primes"]
    if type(primes) is not list:  # a JSON string would read as its characters
        raise TypeError(f"primes must be a list, not {primes!r}")
    return Star(tuple(primes), family_from_record(record["family"]))
