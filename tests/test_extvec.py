import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import frac_spec, preceq, vec_inf_pairwise

from dedstar.extvec import (
    POS_INF,
    ZERO,
    ExtOverflowError,
    I64_MAX,
    I64_MIN,
    SpectrumError,
    ValVector,
    ext_le,
    inf_support,
    iota,
    one,
    scale,
    top,
    vec_colon,
    vec_inf,
    vec_le,
    vec_mul,
)

SMALL = [-2, -1, 0, 1, 2, POS_INF]
#: SMALL plus the 64-bit edges, where a sum or a difference leaves the range.
EDGE = SMALL + [I64_MIN, I64_MAX]


def vectors(n=2, allow_inf=True):
    entry = st.one_of(st.integers(-8, 8), st.just(POS_INF)) if allow_inf \
        else st.integers(-8, 8)
    return st.tuples(*[entry] * n).map(lambda e: ValVector(tuple(range(n)), e))


def single(a):
    return ValVector((2,), (a,))


def outcome(op, a, b):
    """op on one-entry vectors, as None for +inf, 'ZERO' or 'overflow'."""
    try:
        result = op(single(a), single(b))
    except ExtOverflowError:
        return "overflow"
    if result is ZERO:
        return "ZERO"
    return None if result.entries[0] is POS_INF else result.entries[0]


def in_range(v):
    return "overflow" if isinstance(v, int) and not I64_MIN <= v <= I64_MAX else v


class TestExtInt:
    def test_inf_absorbs_finite(self):
        assert vec_mul(single(3), single(POS_INF)) == single(POS_INF)
        assert vec_mul(single(POS_INF), single(3)) == single(POS_INF)
        assert vec_mul(single(2), single(3)) == single(5)

    def test_commutative_associative_exhaustive(self):
        for a, b in itertools.product(SMALL, repeat=2):
            assert vec_mul(single(a), single(b)) == vec_mul(single(b), single(a))
        for a, b, c in itertools.product(SMALL, repeat=3):
            f, g, h = single(a), single(b), single(c)
            assert vec_mul(vec_mul(f, g), h) == vec_mul(f, vec_mul(g, h))

    def test_total_order(self):
        for a in SMALL:
            assert ext_le(a, POS_INF)
        for a, b in itertools.product(SMALL, repeat=2):
            assert ext_le(a, b) or ext_le(b, a)
            if ext_le(a, b) and ext_le(b, a):
                assert a == b
        assert not ext_le(POS_INF, 5)
        assert ext_le(-1, 0) and not ext_le(0, -1)

    def test_entry_rules_exhaustive(self):
        """Each vector operation against its entry rule, with None for +inf."""
        for a, b in itertools.product(EDGE, repeat=2):
            x = None if a is POS_INF else a
            y = None if b is POS_INF else b
            le = y is None or (x is not None and x <= y)
            assert vec_le(single(a), single(b)) == le
            assert outcome(lambda f, g: vec_inf([f, g], (2,)), a, b) == (x if le else y)
            product = None if x is None or y is None else x + y
            assert outcome(vec_mul, a, b) == in_range(product)
            if x is None:
                colon = None
            elif y is None:
                colon = "ZERO"
            else:
                colon = x - y
            assert outcome(vec_colon, a, b) == in_range(colon)

    def test_overflow_is_an_error(self):
        for op, a, b in [(vec_mul, I64_MAX, 1), (vec_mul, I64_MIN, -1),
                         (vec_colon, I64_MAX, -1), (vec_colon, I64_MIN, 1)]:
            with pytest.raises(ExtOverflowError):
                op(single(a), single(b))
        with pytest.raises(ExtOverflowError):
            single(I64_MAX + 1)


class TestVectorBasics:
    def test_empty_spectrum_rejected(self):
        with pytest.raises(SpectrumError):
            ValVector((), ())

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


@st.composite
def vector_lists(draw):
    """0 to 5 vectors over one spectrum of 1 to 4 primes, entries from EDGE."""
    n = draw(st.integers(1, 4))
    row = st.tuples(*[st.sampled_from(EDGE)] * n)
    primes = tuple(range(10, 10 + n))
    return primes, [ValVector(primes, e) for e in draw(st.lists(row, max_size=5))]


class TestVecInf:
    @given(vector_lists())
    def test_matches_pairwise_fold(self, case):
        primes, fs = case
        assert vec_inf(fs, primes) == vec_inf_pairwise(fs, primes)

    def test_one_shot_generator(self):
        p = (2, 3)
        fs = [ValVector(p, (1, POS_INF)), ValVector(p, (3, -4))]
        assert vec_inf((f for f in fs), p) == ValVector(p, (1, -4))

    def test_third_vector_off_spectrum(self):
        fs = [ValVector((2, 3), (0, 0)), ValVector((2, 3), (1, 1)), ValVector((2, 5), (0, 0))]
        with pytest.raises(SpectrumError) as raised:
            vec_inf(fs, [2, 3])
        assert str(raised.value) == "prime lists differ: (2, 3) vs (2, 5)"
        with pytest.raises(SpectrumError) as folded:
            vec_inf_pairwise(fs, [2, 3])
        assert str(folded.value) == str(raised.value)

    def test_all_inf_column_stays_inf(self):
        p = (2, 3, 5)
        fs = [ValVector(p, (POS_INF, 1, POS_INF)), ValVector(p, (POS_INF, POS_INF, -2))]
        result = vec_inf(fs, p)
        assert result.entries[0] is POS_INF
        assert result == ValVector(p, (POS_INF, 1, -2))


class TestColon:
    def test_examples(self):
        p = (2, 3)
        # frozen from the rational colon oracle on I=D, J=(1/2)D
        assert vec_colon(one(p), ValVector(p, (1, 0))) == ValVector(p, (-1, 0))
        assert vec_colon(one(p), ValVector(p, (POS_INF, 0))) is ZERO

    @given(vectors())
    def test_colon_by_ring_is_identity(self, f):
        assert vec_colon(f, one(f.primes)) == f

    def test_colon_by_ring_at_i64_min(self):
        f = ValVector((2, 3), (I64_MIN, 0))
        assert vec_colon(f, one(f.primes)) == f

    def test_vanishing_colon_wins_over_overflow(self):
        # the first entry alone would leave the 64-bit range
        p = (2, 3)
        assert vec_colon(ValVector(p, (I64_MAX, 0)), ValVector(p, (-1, POS_INF))) is ZERO

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
        from dedstar.rationals import colon_oracle, vector_of_module

        spec_i = frac_spec((2, 3), ["1/6"])
        spec_j = frac_spec((2, 3), ["1/2", "1/3"])
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
