"""Extended integers and valuation vectors.

A nonzero submodule of the quotient field of a semilocal Dedekind domain is
determined by the tuple of its negated valuations at the finitely many
maximal ideals.  This module implements that model: entries live in the
integers extended by +inf and -inf, a vector with no -inf entry represents a
nonzero module, and the zero module is a separate canonical marker ``ZERO``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Iterable, Sequence, Tuple, Union

I64_MIN = -(2 ** 63)
I64_MAX = 2 ** 63 - 1


class ExtOverflowError(ArithmeticError):
    """Finite extended-integer arithmetic left the 64-bit signed range."""


class SpectrumError(ValueError):
    """Prime lists are empty, mismatched, or contain duplicates."""


class ZeroModuleError(ValueError):
    """An operation defined only on nonzero modules received ZERO."""


class _Inf:
    """Signed infinity sentinel; exactly two instances exist."""

    __slots__ = ("sign",)

    def __init__(self, sign: int) -> None:
        self.sign = sign

    def __repr__(self) -> str:
        return "POS_INF" if self.sign > 0 else "NEG_INF"

    def __neg__(self) -> "_Inf":
        return NEG_INF if self.sign > 0 else POS_INF


POS_INF = _Inf(1)
NEG_INF = _Inf(-1)

ExtInt = Union[int, _Inf]


class _ZeroModule:
    """Canonical marker for the zero module; a single instance exists."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ZERO"


ZERO = _ZeroModule()


def _check_finite_range(value: int) -> int:
    if not I64_MIN <= value <= I64_MAX:
        raise ExtOverflowError(f"finite result {value} exceeds 64-bit range")
    return value


def ext_add(a: ExtInt, b: ExtInt) -> ExtInt:
    """Extended addition: -inf annihilates, +inf absorbs everything else."""
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    if a is POS_INF or b is POS_INF:
        return POS_INF
    return _check_finite_range(a + b)


def ext_neg(a: ExtInt) -> ExtInt:
    """Negation; swaps the infinities."""
    if isinstance(a, _Inf):
        return -a
    return _check_finite_range(-a)


def ext_le(a: ExtInt, b: ExtInt) -> bool:
    if a is NEG_INF or b is POS_INF:
        return True
    if a is POS_INF:
        return b is POS_INF
    if b is NEG_INF:
        return False
    return a <= b


def ext_min(a: ExtInt, b: ExtInt) -> ExtInt:
    return a if ext_le(a, b) else b


@dataclass(frozen=True)
class ValVector:
    """Valuation vector of a nonzero module over an ordered finite prime list.

    Entry i is the negated valuation at primes[i]; +inf entries mark primes
    where the localization is the whole quotient field.  -inf entries are
    rejected: vectors that would acquire one normalize to ``ZERO`` via
    :func:`make_vector`.
    """

    primes: Tuple[Hashable, ...]
    entries: Tuple[ExtInt, ...]

    def __post_init__(self) -> None:
        if len(self.primes) == 0:
            raise SpectrumError("empty spectrum: the ring would be a field")
        if len(set(self.primes)) != len(self.primes):
            raise SpectrumError(f"duplicate primes in {self.primes}")
        if len(self.entries) != len(self.primes):
            raise SpectrumError("entry count does not match prime count")
        for e in self.entries:
            if e is NEG_INF:
                raise SpectrumError(
                    "-inf entry: construct via make_vector to normalize to ZERO"
                )
            if isinstance(e, int):
                _check_finite_range(e)

    @property
    def n(self) -> int:
        return len(self.primes)


ModuleVector = Union[ValVector, _ZeroModule]


def make_vector(primes: Sequence[Hashable], entries: Sequence[ExtInt]) -> ModuleVector:
    """Build a vector, normalizing any -inf entry to the canonical ZERO."""
    if any(e is NEG_INF for e in entries):
        return ZERO
    return ValVector(tuple(primes), tuple(entries))


def top(primes: Sequence[Hashable]) -> ValVector:
    """The all-+inf vector: the quotient field, greatest element."""
    return ValVector(tuple(primes), (POS_INF,) * len(primes))


def one(primes: Sequence[Hashable]) -> ValVector:
    """The all-zero vector: the base ring, multiplicative identity."""
    return ValVector(tuple(primes), (0,) * len(primes))


def iota(primes: Sequence[Hashable], support: Iterable[int]) -> ValVector:
    """The indicator vector: +inf on the given index set, 0 elsewhere."""
    supp = set(support)
    return ValVector(
        tuple(primes),
        tuple(POS_INF if i in supp else 0 for i in range(len(primes))),
    )


def _same_spectrum(f: ValVector, g: ValVector) -> None:
    if f.primes != g.primes:
        raise SpectrumError(f"prime lists differ: {f.primes} vs {g.primes}")


def vec_mul(f: ModuleVector, g: ModuleVector) -> ModuleVector:
    """Module product: pointwise extended addition of exponent vectors."""
    if f is ZERO or g is ZERO:
        return ZERO
    _same_spectrum(f, g)
    return make_vector(f.primes, tuple(ext_add(a, b) for a, b in zip(f.entries, g.entries)))


def vec_inf(fs: Iterable[ValVector], primes: Sequence[Hashable]) -> ValVector:
    """Module intersection: pointwise minimum; empty input gives the top."""
    result = top(primes)
    for f in fs:
        _same_spectrum(result, f)
        result = ValVector(
            result.primes,
            tuple(ext_min(a, b) for a, b in zip(result.entries, f.entries)),
        )
    return result


def vec_le(f: ValVector, g: ValVector) -> bool:
    """Module containment: pointwise <= on exponent vectors."""
    _same_spectrum(f, g)
    return all(ext_le(a, b) for a, b in zip(f.entries, g.entries))


def vec_colon(f: ValVector, g: ValVector) -> ModuleVector:
    """Set-theoretic colon of modules: entrywise -(-f+g); ZERO if it vanishes."""
    _same_spectrum(f, g)
    return make_vector(
        f.primes,
        tuple(ext_neg(ext_add(ext_neg(a), b)) for a, b in zip(f.entries, g.entries)),
    )


def inf_support(f: ValVector) -> FrozenSet[int]:
    """Indices where the vector is +inf; the classifying datum of a module."""
    return frozenset(i for i, e in enumerate(f.entries) if e is POS_INF)


def scale(f: ModuleVector, c: ValVector) -> ModuleVector:
    """Multiply by a principal module: c must be finite everywhere."""
    if any(e is POS_INF for e in c.entries):
        raise ValueError("scaling vector must have all entries finite")
    if f is ZERO:
        return ZERO
    return vec_mul(f, c)
