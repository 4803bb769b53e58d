import itertools
import json
import random

import pytest

from conftest import (
    dagger_bounded_oracle, finite_type_by_truncation, hasse_by_definition, windowed_vectors)

from dedstar import moore
from dedstar.extvec import (
    POS_INF,
    ZERO,
    SpectrumError,
    ValVector,
    ZeroModuleError,
    inf_support,
    one,
    top,
    vec_colon,
    vec_inf,
    vec_le,
    vec_mul,
)
from dedstar.moore import (
    GROUND_SET_GUARD,
    GuardError,
    MooreFamily,
    enumerate_moore,
    family_to_record,
    hasse,
    indices_of,
    is_principal_upfilter,
    mask_of,
)
from dedstar.stars import (
    D_OF_GUARD,
    Star,
    apply,
    classify,
    d_apply_direct,
    d_of_overring,
    dagger_supports,
    default_primes,
    is_closed,
    star_from_moore,
    star_from_record,
    star_join,
    star_le,
    star_meet,
    v_apply_by_colon,
    v_of,
)
from dedstar.verify import _missing_proper, random_vector

P2 = (2, 3)
P3 = (2, 3, 5)


def star_of(n, member_masks, primes=None):
    return Star(primes or default_primes(n),
                MooreFamily(n, tuple(sorted(member_masks))))


class TestConstruction:
    def test_exactly_two_stars_on_a_dvr(self):
        assert sum(1 for _ in enumerate_moore(1)) == 2

    def test_spectrum_length_checked(self):
        with pytest.raises(SpectrumError):
            Star((2,), MooreFamily(2, (0b11,)))


class TestApply:
    def test_identity_star_fixes_everything(self):
        s = d_of_overring(P2, range(2))
        for f in windowed_vectors(P2, 2):
            assert apply(s, f) == f

    def test_trivial_extension_sends_everything_to_top(self):
        s = d_of_overring(P2, ())
        for f in windowed_vectors(P2, 2):
            assert apply(s, f) == top(P2)

    def test_derived_example(self):
        s = star_of(2, {0b01, 0b11}, P2)
        assert apply(s, one(P2)) == ValVector(P2, (POS_INF, 0))

    def test_zero_rejected(self):
        with pytest.raises(ZeroModuleError):
            apply(d_of_overring(P2, range(2)), ZERO)

    def test_spectrum_mismatch(self):
        with pytest.raises(SpectrumError):
            apply(star_of(2, {0b01, 0b11}, P2), one((2, 7)))

    def test_result_is_least_closed_upper_bound(self):
        # bounded brute force over the window, n <= 3
        rng = random.Random(3)
        for n, primes in ((2, P2), (3, P3)):
            families = list(enumerate_moore(n))
            for fam in rng.sample(families, min(10, len(families))):
                s = Star(primes, fam)
                closed = [v for v in windowed_vectors(primes, 3) if is_closed(s, v)]
                for f in windowed_vectors(primes, 2)[:: 7 if n == 3 else 1]:
                    expected = vec_inf(
                        [c for c in closed if vec_le(f, c)], primes
                    )
                    assert apply(s, f) == expected

    def test_closure_axioms_sampled(self):
        rng = random.Random(17)
        pools = {n: list(enumerate_moore(n)) for n in (1, 2, 3, 4)}
        for _ in range(500):
            n = rng.randint(1, 4)
            primes = default_primes(n)
            s = Star(primes, rng.choice(pools[n]))
            f = random_vector(rng, primes)
            g = random_vector(rng, primes)
            fa = apply(s, f)
            assert vec_le(f, fa)                       # extensive
            assert apply(s, fa) == fa                  # idempotent
            if vec_le(f, g):
                assert vec_le(fa, apply(s, g))         # monotone
            c = ValVector(primes, tuple(rng.randint(-5, 5) for _ in primes))
            assert apply(s, vec_mul(f, c)) == vec_mul(fa, c)  # scale-equivariant

    def test_nucleus_and_residuation_laws_sampled(self):
        rng = random.Random(19)
        pools = {n: list(enumerate_moore(n)) for n in (1, 2, 3)}
        for _ in range(500):
            n = rng.randint(1, 3)
            primes = default_primes(n)
            s = Star(primes, rng.choice(pools[n]))
            f = random_vector(rng, primes)
            g = random_vector(rng, primes)
            h = random_vector(rng, primes)
            fa, ga, ha = apply(s, f), apply(s, g), apply(s, h)
            assert apply(s, vec_mul(fa, ga)) == apply(s, vec_mul(f, g))
            assert vec_le(vec_mul(fa, ga), apply(s, vec_mul(f, g)))
            lhs = vec_le(vec_mul(f, g), ha)
            rhs = vec_le(vec_mul(f, ga), ha)
            assert lhs == rhs

    def test_order_reversal_all_pairs_n2(self):
        families = list(enumerate_moore(2))
        sample = windowed_vectors(P2, 2)
        for f1, f2 in itertools.product(families, repeat=2):
            if set(f1.members) <= set(f2.members):
                s1, s2 = Star(P2, f1), Star(P2, f2)
                assert star_le(s2, s1)
                for f in sample:
                    assert vec_le(apply(s2, f), apply(s1, f))

    def test_missing_proper_subsets_embed_the_order_n3(self):
        """F -> {c + 1 : proper c not in F}, the map ``verify n2-shape`` checks,
        is one to one at n = 3 and star_le holds exactly where the images are
        nested, on all 61^2 pairs."""
        star_list = [star_from_moore(f) for f in enumerate_moore(3)]
        images = [_missing_proper(s.family) for s in star_list]
        assert len(set(images)) == 61
        for (s, a), (t, b) in itertools.product(zip(star_list, images), repeat=2):
            assert star_le(s, t) == (a <= b)


class TestStarOrder:
    STARS_N3 = [star_from_moore(f) for f in enumerate_moore(3)]

    def test_agrees_with_member_inclusion_n3(self):
        for a, b in itertools.product(self.STARS_N3, repeat=2):
            assert star_le(a, b) == (set(b.family.members) <= set(a.family.members))

    def test_spectra_differ(self):
        fam = MooreFamily(2, (0b01, 0b11))
        fam.member_set  # a built index changes nothing
        with pytest.raises(SpectrumError):
            star_le(Star(P2, fam), Star((2, 7), fam))

    def test_hasse_n3_matches_definition(self):
        edges = hasse(self.STARS_N3, star_le)
        assert len(edges) == 151
        assert edges == hasse_by_definition(self.STARS_N3, star_le)


class TestIsClosed:
    def test_examples(self):
        s = star_of(2, {0b01, 0b11}, P2)
        assert is_closed(s, ValVector(P2, (POS_INF, 3)))
        assert not is_closed(s, one(P2))
        for fam in enumerate_moore(2):
            assert is_closed(Star(P2, fam), top(P2))

    def test_agrees_with_apply_fixpoint(self):
        for fam in enumerate_moore(2):
            s = Star(P2, fam)
            for f in windowed_vectors(P2, 2):
                assert is_closed(s, f) == (apply(s, f) == f)

    def test_zero_rejected(self):
        with pytest.raises(ZeroModuleError):
            is_closed(d_of_overring(P2, range(2)), ZERO)


class TestDagger:
    def test_examples(self):
        assert dagger_supports([], P2).members == (0b11,)
        fam = dagger_supports(
            [ValVector(P2, (POS_INF, 0)), ValVector(P2, (0, POS_INF))], P2
        )
        assert fam.members == (0b00, 0b01, 0b10, 0b11)
        assert dagger_supports([ValVector(P2, (3, -2))], P2).members == (0b00, 0b11)

    def test_spectrum_mismatch(self):
        with pytest.raises(SpectrumError):
            dagger_supports([one((2, 7))], P2)

    def test_bounded_oracle_single_generator(self):
        out = dagger_bounded_oracle([one(P2)], P2, 1)
        finite = {v for v in out if v != top(P2)}
        assert top(P2) in out
        assert finite == {
            ValVector(P2, (a, b)) for a in (-1, 0, 1) for b in (-1, 0, 1)
        }

    def test_bounded_oracle_empty_gens(self):
        assert dagger_bounded_oracle([], P2, 2) == {top(P2)}

    def test_oracle_membership_matches_support_family(self):
        rng = random.Random(23)
        pool = windowed_vectors(P2, 1)
        for _ in range(30):
            gens = rng.sample(pool, rng.randint(0, 3))
            fam = dagger_supports(gens, P2)
            out = dagger_bounded_oracle(gens, P2, 3)
            member_masks = set(fam.members)
            for v in windowed_vectors(P2, 3):
                expected = mask_of(inf_support(v), 2) in member_masks
                assert (v in out) == expected, (gens, v)

    def test_guard(self):
        with pytest.raises(GuardError):
            dagger_bounded_oracle([], (2, 3, 5, 7), 1)
        with pytest.raises(GuardError):
            dagger_bounded_oracle([], P2, 5)


class TestMeetJoin:
    def test_extremes(self):
        d, e = d_of_overring(P2, range(2)), d_of_overring(P2, ())
        assert star_meet([e, d]) == d
        assert star_join([e, d]) == e
        assert star_le(d, e)

    def test_meet_of_divisorial_generators(self):
        s1 = v_of(ValVector(P2, (POS_INF, 0)))
        s2 = v_of(ValVector(P2, (0, POS_INF)))
        assert star_meet([s1, s2]).family.members == (0b00, 0b01, 0b10, 0b11)

    def test_meet_is_pointwise_infimum(self):
        rng = random.Random(29)
        families = list(enumerate_moore(2))
        for f1, f2 in itertools.product(families, repeat=2):
            s1, s2 = Star(P2, f1), Star(P2, f2)
            m = star_meet([s1, s2])
            for _ in range(5):
                f = random_vector(rng, P2)
                assert apply(m, f) == vec_inf([apply(s1, f), apply(s2, f)], P2)

    def test_join_is_least_common_closure(self):
        rng = random.Random(31)
        families = list(enumerate_moore(2))
        for f1, f2 in itertools.product(families, repeat=2):
            s1, s2 = Star(P2, f1), Star(P2, f2)
            j = star_join([s1, s2])
            for _ in range(5):
                f = random_vector(rng, P2)
                jf = apply(j, f)
                assert is_closed(s1, jf) and is_closed(s2, jf)
                for g in windowed_vectors(P2, 2):
                    if vec_le(f, g) and is_closed(s1, g) and is_closed(s2, g):
                        assert vec_le(jf, g)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            star_meet([])
        with pytest.raises(ValueError):
            star_join([])

    @staticmethod
    def _count_validations(monkeypatch):
        """Record each ``moore.is_moore`` call, the check behind every
        validated ``MooreFamily``."""
        calls = []
        is_moore = moore.is_moore

        def counted(*args):
            calls.append(args)
            return is_moore(*args)

        monkeypatch.setattr(moore, "is_moore", counted)
        return calls

    def test_each_result_validated_once(self, monkeypatch):
        stars = [star_of(3, (1 << i, 0b111)) for i in range(3)]
        calls = self._count_validations(monkeypatch)
        assert star_meet(stars).family.members == (0b000, 0b001, 0b010, 0b100, 0b111)
        assert len(calls) == 1
        assert star_join(stars).family.members == (0b111,)
        assert len(calls) == 2

    def test_meet_refused_before_any_validation(self, monkeypatch):
        """The meet of the 13 coatom stars {all but i, all} on 13 points has
        2^13 members, past ``FOLD_GUARD``: one fold refuses it, where a
        pairwise reduction would validate each intermediate join first."""
        full = (1 << 13) - 1
        stars = [star_of(13, (full ^ 1 << i, full)) for i in range(13)]
        calls = self._count_validations(monkeypatch)
        with pytest.raises(GuardError):
            star_meet(stars)
        assert calls == []


class TestDivisorial:
    def test_families(self):
        assert v_of(one(P2)).family.members == (0b00, 0b11)
        assert v_of(ValVector(P2, (POS_INF, 0))).family.members == (0b01, 0b11)
        assert v_of(top(P2)).family.members == (0b11,)

    def test_zero_rejected(self):
        with pytest.raises(ZeroModuleError):
            v_of(ZERO)

    def test_apply_matches_double_colon(self):
        for j in windowed_vectors(P2, 2):
            s = v_of(j)
            for f in windowed_vectors(P2, 2):
                assert apply(s, f) == v_apply_by_colon(j, f)

    def test_v_stars_are_daggers_of_at_most_two_members(self):
        """Over the 84 window vectors j (bound 1) for n = 1..3, v_of(j) has
        the support family of the closure of j alone, and the v-families are
        exactly the 2^n families of at most 2 members."""
        seen = 0
        for n in (1, 2, 3):
            primes = default_primes(n)
            families = set()
            for j in windowed_vectors(primes, 1):
                family = v_of(j).family
                assert family == dagger_supports([j], primes)
                families.add(family)
                seen += 1
            small = {f for f in enumerate_moore(n) if len(f.members) <= 2}
            assert families == small
            assert len(small) == 2 ** n
        assert seen == 84

    def test_outer_colon_never_vanishes(self):
        """A nonzero (j : f) is +inf exactly where j is, so the outer colon
        (j : (j : f)) is never the zero module."""
        nonzero = 0
        for primes in ((2,), P2):
            sample = windowed_vectors(primes, 2)
            for j, f in itertools.product(sample, repeat=2):
                inner = vec_colon(j, f)
                if inner is not ZERO:
                    nonzero += 1
                    assert inf_support(inner) == inf_support(j)
                    assert vec_colon(j, inner) is not ZERO
        assert nonzero == 992  # of the 1 332 windowed pairs


class TestOverringStars:
    def test_extreme_bases(self):
        assert d_of_overring(P2, {0, 1}) == star_of(2, range(4), P2)
        assert d_of_overring(P2, set()) == star_of(2, {0b11}, P2)

    def test_example(self):
        assert d_of_overring(P2, {0}).family.members == (0b10, 0b11)

    def test_apply_is_multiplication_by_overring(self):
        for x_size in range(3):
            for x in itertools.combinations(range(2), x_size):
                s = d_of_overring(P2, x)
                complement = set(range(2)) - set(x)
                for f in windowed_vectors(P2, 2):
                    assert apply(s, f) == d_apply_direct(complement, f)

    def test_matches_brute_force_upfilter(self):
        for n in range(1, 6):
            full = (1 << n) - 1
            for x_mask in range(1 << n):
                base = full & ~x_mask
                expected = tuple(m for m in range(1 << n) if m & base == base)
                s = d_of_overring(default_primes(n), indices_of(x_mask))
                assert s.family.members == expected

    def test_size_guards(self):
        with pytest.raises(GuardError):
            d_of_overring(default_primes(D_OF_GUARD + 1), range(D_OF_GUARD + 1))
        assert len(d_of_overring(default_primes(20), range(14)).family.members) == 1 << 14
        with pytest.raises(SpectrumError):
            d_of_overring((), [])

    def test_ground_set_guard(self):
        """The guard of every other path that builds a family: a star on 65
        points is refused, not built."""
        with pytest.raises(GuardError):
            d_of_overring(default_primes(GROUND_SET_GUARD + 1), [0])
        assert d_of_overring(default_primes(GROUND_SET_GUARD), [0]).n == GROUND_SET_GUARD

    def test_pairwise_distinct_and_order_reversing(self):
        all_x = [set(c) for k in range(3) for c in itertools.combinations(range(2), k)]
        built = [d_of_overring(P2, x) for x in all_x]
        assert len({s.family.members for s in built}) == len(all_x)
        # localizing at more primes gives a smaller overring, hence smaller star
        for x1, s1 in zip(all_x, built):
            for x2, s2 in zip(all_x, built):
                if x1 <= x2:
                    assert star_le(s2, s1)


class TestFiniteType:
    def test_overring_stars_are_finite_type(self):
        for k in range(3):
            for x in itertools.combinations(range(2), k):
                assert is_principal_upfilter(d_of_overring(P2, x).family)

    def test_trivial_extension_is_finite_type(self):
        assert is_principal_upfilter(d_of_overring(P3, ()).family)

    def test_divisorial_counterexample(self):
        s = v_of(one(P2))
        assert not is_principal_upfilter(s.family)
        # truncations of (inf, 0) stay put but the limit closes to the top
        t = ValVector(P2, (POS_INF, 0))
        assert apply(s, ValVector(P2, (4, 0))) == ValVector(P2, (4, 0))
        assert apply(s, t) == top(P2)

    def test_truncation_oracle_agrees_on_all_families(self):
        samples = windowed_vectors(P2, 2)
        for fam in enumerate_moore(2):
            s = Star(P2, fam)
            assert (finite_type_by_truncation(s, samples, 4)
                    == is_principal_upfilter(s.family))


class TestClassify:
    def test_identity(self):
        labels = classify(d_of_overring(P2, range(2)))
        assert "identity" in labels
        assert "finite-type" in labels
        assert "overring-induced X={0,1}" in labels

    def test_trivial_extension(self):
        labels = classify(d_of_overring(P2, ()))
        assert "trivial-extension" in labels
        assert "finite-type" in labels
        assert "overring-induced X={}" in labels

    def test_divisorially_generated(self):
        labels = classify(star_of(2, {0b00, 0b11}, P2))
        assert labels == ["divisorially-generated"]


class TestSerialization:
    def test_roundtrip(self):
        for fam in enumerate_moore(2):
            record = {"primes": list(P2), "family": family_to_record(fam)}
            assert star_from_record(record) == Star(P2, fam)

    def test_record_shape(self):
        """A star file as the README gives its format."""
        record = json.loads('{"primes":[2,3],"family":{"n":2,"members":[[0,1],[0]]}}')
        assert star_from_record(record) == star_of(2, {0b01, 0b11}, P2)
        with pytest.raises(SpectrumError):
            star_from_record({"primes": [2], "family": record["family"]})

    def test_primes_must_be_a_list(self):
        """A JSON string is not read as its characters, the primes 'a' and 'b'."""
        family = {"n": 2, "members": [[0, 1]]}
        with pytest.raises(TypeError):
            star_from_record({"primes": "ab", "family": family})
