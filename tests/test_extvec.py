import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import preceq

from dedstar.extvec import (
    NEG_INF,
    POS_INF,
    ZERO,
    ExtOverflowError,
    I64_MAX,
    SpectrumError,
    ValVector,
    ext_add,
    ext_le,
    ext_neg,
    inf_support,
    iota,
    make_vector,
    one,
    scale,
    top,
    vec_colon,
    vec_inf,
    vec_le,
    vec_mul,
)

SMALL = [NEG_INF, -2, -1, 0, 1, 2, POS_INF]

ext_ints = st.one_of(st.integers(-50, 50), st.just(POS_INF), st.just(NEG_INF))


def vectors(n=2, allow_inf=True):
    entry = st.one_of(st.integers(-8, 8), st.just(POS_INF)) if allow_inf \
        else st.integers(-8, 8)
    return st.tuples(*[entry] * n).map(lambda e: ValVector(tuple(range(n)), e))


class TestExtInt:
    def test_annihilator_convention(self):
        assert ext_add(POS_INF, NEG_INF) is NEG_INF
        assert ext_add(NEG_INF, POS_INF) is NEG_INF

    def test_inf_absorbs_finite(self):
        assert ext_add(3, POS_INF) is POS_INF
        assert ext_add(POS_INF, 3) is POS_INF
        assert ext_add(2, 3) == 5

    def test_neg_inf_absorbs_everything(self):
        for a in SMALL:
            assert ext_add(a, NEG_INF) is NEG_INF
            assert ext_add(NEG_INF, a) is NEG_INF

    def test_commutative_associative_exhaustive(self):
        for a, b in itertools.product(SMALL, repeat=2):
            assert ext_add(a, b) == ext_add(b, a)
        for a, b, c in itertools.product(SMALL, repeat=3):
            assert ext_add(ext_add(a, b), c) == ext_add(a, ext_add(b, c))

    def test_neg(self):
        assert ext_neg(POS_INF) is NEG_INF
        assert ext_neg(NEG_INF) is POS_INF
        assert ext_neg(-7) == 7

    @given(ext_ints)
    def test_neg_involution(self, a):
        assert ext_neg(ext_neg(a)) == a

    def test_total_order(self):
        for a in SMALL:
            assert ext_le(NEG_INF, a)
            assert ext_le(a, POS_INF)
        assert not ext_le(POS_INF, 5)
        assert not ext_le(0, NEG_INF)
        assert ext_le(-1, 0)

    def test_overflow_is_an_error(self):
        with pytest.raises(ExtOverflowError):
            ext_add(I64_MAX, 1)
        with pytest.raises(ExtOverflowError):
            ext_add(-(2 ** 63), -1)


class TestVectorBasics:
    def test_empty_spectrum_rejected(self):
        with pytest.raises(SpectrumError):
            ValVector((), ())

    def test_neg_inf_normalizes_to_zero(self):
        assert make_vector((2, 3), (NEG_INF, 0)) is ZERO
        with pytest.raises(SpectrumError):
            ValVector((2, 3), (NEG_INF, 0))

    def test_mul_examples(self):
        p = (2, 3)
        assert vec_mul(ValVector(p, (1, 0)), ValVector(p, (2, POS_INF))) == \
            ValVector(p, (3, POS_INF))
        assert vec_mul(ValVector(p, (1, -1)), ValVector(p, (-1, 1))) == one(p)

    @given(vectors(), vectors())
    def test_mul_commutative(self, f, g):
        assert vec_mul(f, g) == vec_mul(g, f)

    @given(vectors(), vectors(), vectors())
    def test_mul_associative(self, f, g, h):
        assert vec_mul(vec_mul(f, g), h) == vec_mul(f, vec_mul(g, h))

    @given(vectors())
    def test_mul_identity(self, f):
        assert vec_mul(one(f.primes), f) == f

    def test_inf_examples(self):
        p = (2, 3)
        assert vec_inf([ValVector(p, (1, 0)), ValVector(p, (0, POS_INF))], p) == one(p)
        assert vec_inf([], p) == top(p)
        assert vec_inf(
            [ValVector(p, (POS_INF, 2)), ValVector(p, (POS_INF, 5))], p
        ) == ValVector(p, (POS_INF, 2))

    @given(vectors(), vectors())
    def test_inf_lattice_meet(self, f, g):
        m = vec_inf([f, g], f.primes)
        assert m == vec_inf([g, f], f.primes)
        assert vec_inf([f, f], f.primes) == f
        assert vec_le(m, f) and vec_le(m, g)

    @given(vectors(), vectors(), vectors())
    def test_inf_associative(self, f, g, h):
        p = f.primes
        assert vec_inf([vec_inf([f, g], p), h], p) == vec_inf([f, vec_inf([g, h], p)], p)

    def test_spectrum_mismatch(self):
        with pytest.raises(SpectrumError):
            vec_mul(ValVector((2,), (0,)), ValVector((3,), (0,)))


class TestColon:
    def test_examples(self):
        p = (2, 3)
        # frozen from the rational colon oracle on I=D, J=(1/2)D
        assert vec_colon(one(p), ValVector(p, (1, 0))) == ValVector(p, (-1, 0))
        assert vec_colon(one(p), ValVector(p, (POS_INF, 0))) is ZERO

    @given(vectors())
    def test_colon_by_ring_is_identity(self, f):
        assert vec_colon(f, one(f.primes)) == f

    @given(vectors(allow_inf=False), vectors(allow_inf=False))
    def test_colon_is_largest_multiplier(self, f, g):
        c = vec_colon(f, g)
        assert c is not ZERO
        assert vec_le(vec_mul(c, g), f)
        for i in range(f.n):
            bumped = list(c.entries)
            bumped[i] += 1
            worse = ValVector(c.primes, tuple(bumped))
            assert not vec_le(vec_mul(worse, g), f)

    def test_colon_cross_checked_against_oracle(self):
        from dedstar.rationals import FracIdealSpec, colon_oracle, vector_of_module

        spec_i = FracIdealSpec.of((2, 3), ["1/6"])
        spec_j = FracIdealSpec.of((2, 3), ["1/2", "1/3"])
        assert colon_oracle(spec_i, spec_j) == one((2, 3))
        assert vec_colon(
            vector_of_module(spec_i), vector_of_module(spec_j)
        ) == one((2, 3))


class TestPreceq:
    def test_examples(self):
        p = (2, 3)
        assert preceq(ValVector(p, (5, 0)), ValVector(p, (1, 0)))
        assert not preceq(ValVector(p, (POS_INF, 0)), one(p))
        assert preceq(ValVector(p, (POS_INF, 3)), ValVector(p, (POS_INF, -7)))

    @given(vectors())
    def test_reflexive(self, f):
        assert preceq(f, f)

    @given(vectors(), vectors(), vectors())
    def test_transitive(self, f, g, h):
        if preceq(f, g) and preceq(g, h):
            assert preceq(f, h)

    @given(vectors(), vectors())
    def test_reduces_to_support_equality_on_finite_spectra(self, f, g):
        assert preceq(f, g) == (inf_support(f) == inf_support(g))


class TestSupportScaleSerial:
    def test_inf_support(self):
        p = (2, 3, 5)
        assert inf_support(ValVector(p, (POS_INF, 0, POS_INF))) == {0, 2}
        assert inf_support(one((2, 3))) == frozenset()
        assert inf_support(top(p)) == {0, 1, 2}

    def test_scale(self):
        p = (2, 3)
        assert scale(ValVector(p, (POS_INF, 0)), ValVector(p, (1, 1))) == \
            ValVector(p, (POS_INF, 1))
        f = ValVector(p, (4, POS_INF))
        assert scale(f, one(p)) == f
        assert scale(ZERO, one(p)) is ZERO
        with pytest.raises(ValueError):
            scale(f, top(p))

    def test_iota(self):
        assert iota((2, 3), {0}) == ValVector((2, 3), (POS_INF, 0))
