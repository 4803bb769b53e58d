"""Concrete ground ring: the integers localized at a finite set of primes.

Fractional ideals are entered as finite lists of nonzero rational
generators, each turned into a ``Fraction`` once, when the spec is built.
Everything here works in exact rational arithmetic and serves as an
independent oracle for the vector-level operations in :mod:`dedstar.extvec`.
A query reads each generator's numerator and denominator once, and takes
each prime's least generator valuation once per spec.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .extvec import POS_INF, ValVector
from .moore import GROUND_SET_GUARD, GuardError

Rational = Union[int, Fraction]

#: Largest prime a spec accepts: trial division stays below 2^16 divisions.
PRIME_GUARD = 2 ** 32
#: Most digits a parsed numerator or denominator may have; larger ones make
#: ``Fraction`` and ``padic_val`` slow in the length of the text.
RATIONAL_DIGIT_GUARD = 1000

_RATIONAL = re.compile(r"[+-]?([0-9]+)(?:/(0*[1-9][0-9]*))?")


def is_prime(p: int) -> bool:
    """Primality by trial division."""
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


@dataclass(frozen=True)
class FracIdealSpec:
    """A fractional ideal given by nonzero rational generators.

    Rationals supported on primes outside the declared list are units of the
    localization, so arbitrary nonzero rationals are acceptable generators.
    Each generator may be anything ``Fraction`` reads, such as 3 or "3/4";
    the spec stores it as a ``Fraction``.
    """

    primes: Tuple[int, ...]
    gens: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.primes:
            raise ValueError("prime list must be nonempty")
        if len(self.primes) > GROUND_SET_GUARD:
            raise GuardError(f"more than {GROUND_SET_GUARD} primes")
        if any(p > PRIME_GUARD for p in self.primes):
            raise GuardError(f"primes above {PRIME_GUARD}")
        if not all(map(is_prime, self.primes)):
            raise ValueError(f"not a list of primes: {self.primes}")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("duplicate primes")
        if not self.gens:
            raise ValueError("generator list must be nonempty")
        gens = tuple(map(Fraction, self.gens))
        object.__setattr__(self, "gens", gens)
        if any(g == 0 for g in gens):
            raise ValueError("generators must be nonzero")


def _strip(num: int, den: int, p: int) -> int:
    """Exponent of p in num/den, for num nonzero, den positive and p >= 2."""
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_val(r: Rational, p: int) -> int:
    """Exponent of p in the nonzero rational r (negative for denominators)."""
    r = Fraction(r)
    if r == 0:
        raise ValueError("valuation of zero is undefined here")
    if p < 2:
        raise ValueError(f"{p} is not a prime")
    return _strip(r.numerator, r.denominator, p)


def _least_valuations(spec: FracIdealSpec) -> List[int]:
    """min_g v_p(g) over the spec's generators, for each of its primes.  The
    spec has checked its primes and its generators, so no pair is re-checked."""
    parts = [(g.numerator, g.denominator) for g in spec.gens]
    return [min(_strip(num, den, p) for num, den in parts) for p in spec.primes]


def vector_of_module(spec: FracIdealSpec) -> ValVector:
    """Valuation vector of the generated module: entry p = -min_g v_p(g)."""
    return ValVector(spec.primes, tuple(-v for v in _least_valuations(spec)))


def module_member(f: ValVector, r: Rational) -> bool:
    """Is the nonzero rational r in the module with vector f?

    It is when each entry e is +inf or satisfies -e <= v_p(r).  A vector's
    primes were never checked as primes, so a p below 2 at a finite entry is
    refused: stripping p = 1 would never end.
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError("membership test is for nonzero elements")
    num, den = r.numerator, r.denominator
    for p, e in zip(f.primes, f.entries):
        if e is POS_INF:
            continue
        if p < 2:
            raise ValueError(f"{p} is not a prime")
        if -e > _strip(num, den, p):
            return False
    return True


def colon_oracle(I: FracIdealSpec, J: FracIdealSpec) -> ValVector:
    """(I : J) computed as the intersection of x^{-1} I over generators x of J.

    Works entirely in rational arithmetic on finite exponents and never calls
    the vector-level colon.  x^{-1} I has negated-valuation vector
    vI + v_p(x), so entry p is min_x (vI + v_p(x)) = min_J - min_I, with
    min_S the least generator valuation of S at p.  For finitely generated
    nonzero I and J the colon is never the zero module, so a vector is
    always returned.
    """
    if I.primes != J.primes:
        raise ValueError("prime lists differ")
    entries = tuple(b - a for a, b in zip(_least_valuations(I), _least_valuations(J)))
    return ValVector(I.primes, entries)


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or an integer, each optionally signed, into an exact rational."""
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"bad rational {text!r}")
    if max(map(len, match.groups(""))) > RATIONAL_DIGIT_GUARD:
        raise GuardError(f"rational with more than {RATIONAL_DIGIT_GUARD} digits")
    return Fraction(match[0])
