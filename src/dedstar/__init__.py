"""Constructive lattice of semistar operations on a semilocal Dedekind domain."""

from .extvec import (
    POS_INF,
    ZERO,
    ExtOverflowError,
    SpectrumError,
    ValVector,
    ZeroModuleError,
)
from .moore import GuardError, MooreFamily, count_moore, enumerate_moore
from .rationals import FracIdealSpec
from .stars import Star

__all__ = [
    "POS_INF",
    "ZERO",
    "ExtOverflowError",
    "FracIdealSpec",
    "GuardError",
    "MooreFamily",
    "SpectrumError",
    "Star",
    "ValVector",
    "ZeroModuleError",
    "count_moore",
    "enumerate_moore",
]

__version__ = "0.1.0"
