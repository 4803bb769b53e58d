"""Valuation vectors of the nonzero submodules of the quotient field.

A nonzero submodule of the quotient field of a semilocal Dedekind domain is
determined by the tuple of its negated valuations at the finitely many
maximal ideals.  This module implements that model: an entry is a 64-bit
integer or ``POS_INF``, and the zero module, which has no such vector, is
the separate canonical marker ``ZERO``.  Each vector operation states its
rule on entries directly; ``ext_le`` is the order on the integers with +inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Iterable, Sequence, Tuple, Union

I64_MIN = -(2 ** 63)
I64_MAX = 2 ** 63 - 1


class ExtOverflowError(ArithmeticError):
    """A finite vector entry left the 64-bit signed range."""


class SpectrumError(ValueError):
    """Prime lists are empty, mismatched, or contain duplicates."""


class ZeroModuleError(ValueError):
    """An operation defined only on nonzero modules received ZERO."""


class _Inf:
    """The +inf entry; a single instance exists."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "POS_INF"


POS_INF = _Inf()

ExtInt = Union[int, _Inf]


class _ZeroModule:
    """Canonical marker for the zero module; a single instance exists."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ZERO"


ZERO = _ZeroModule()


def ext_le(a: ExtInt, b: ExtInt) -> bool:
    """The order on the integers with +inf on top."""
    return b is POS_INF or (a is not POS_INF and a <= b)


@dataclass(frozen=True)
class ValVector:
    """Valuation vector of a nonzero module over an ordered finite prime list.

    Entry i is the negated valuation at primes[i], a 64-bit integer; +inf
    entries mark primes where the localization is the whole quotient field.
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
            if e is not POS_INF and not I64_MIN <= e <= I64_MAX:
                raise ExtOverflowError(f"finite entry {e} exceeds 64-bit range")

    @property
    def n(self) -> int:
        return len(self.primes)


ModuleVector = Union[ValVector, _ZeroModule]


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
    """Module product: entry +inf where either entry is +inf, else a + b."""
    if f is ZERO or g is ZERO:
        return ZERO
    _same_spectrum(f, g)
    return ValVector(f.primes, tuple(
        POS_INF if a is POS_INF or b is POS_INF else a + b
        for a, b in zip(f.entries, g.entries)
    ))


def vec_inf(fs: Iterable[ValVector], primes: Sequence[Hashable]) -> ValVector:
    """Module intersection: pointwise minimum; empty input gives the top."""
    result = top(primes)
    entries = result.entries
    for f in fs:
        _same_spectrum(result, f)
        entries = tuple(a if ext_le(a, b) else b for a, b in zip(entries, f.entries))
    return ValVector(result.primes, entries)


def vec_le(f: ValVector, g: ValVector) -> bool:
    """Module containment: pointwise <= on exponent vectors."""
    _same_spectrum(f, g)
    return all(ext_le(a, b) for a, b in zip(f.entries, g.entries))


def vec_colon(f: ValVector, g: ValVector) -> ModuleVector:
    """Set-theoretic colon of modules: entry +inf where a is +inf, else a - b.

    The colon vanishes, giving ``ZERO``, when some entry has b = +inf and a
    finite, whatever the other entries are.
    """
    _same_spectrum(f, g)
    pairs = tuple(zip(f.entries, g.entries))
    if any(b is POS_INF and a is not POS_INF for a, b in pairs):
        return ZERO
    return ValVector(f.primes, tuple(a if a is POS_INF else a - b for a, b in pairs))


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
