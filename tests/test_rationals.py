import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (colon_by_definition, frac_spec, member_by_definition,
                      product_spec, vector_by_definition)

from dedstar import rationals
from dedstar.extvec import I64_MIN, POS_INF, ValVector, one, vec_colon, vec_mul
from dedstar.moore import GROUND_SET_GUARD, GuardError
from dedstar.rationals import (
    PRIME_GUARD,
    FracIdealSpec,
    RATIONAL_DIGIT_GUARD,
    colon_oracle,
    is_prime,
    module_member,
    padic_val,
    parse_rational,
    vector_of_module,
)
from dedstar.verify import random_frac_spec


class TestPadicVal:
    @pytest.mark.parametrize("r,p,expected", [
        (12, 2, 2),
        (Fraction(1, 9), 3, -2),
        (7, 5, 0),
        (Fraction(-8, 27), 2, 3),
        (Fraction(-8, 27), 3, -3),
    ])
    def test_values(self, r, p, expected):
        assert padic_val(r, p) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            padic_val(0, 2)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            padic_val(3, 1)


class TestVectorOfModule:
    def test_examples(self):
        p = (2, 3)
        assert vector_of_module(frac_spec(p, ["1/2"])) == ValVector(p, (1, 0))
        assert vector_of_module(frac_spec(p, [6])) == ValVector(p, (-1, -1))
        assert vector_of_module(frac_spec(p, ["1/2", "1/3"])) == ValVector(p, (1, 1))

    def test_outside_primes_are_units(self):
        # 7 is a unit of the localization at {2,3}
        assert vector_of_module(frac_spec((2, 3), [7])) == one((2, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            frac_spec((2, 3), [])
        with pytest.raises(ValueError):
            frac_spec((2, 3), [0])
        for primes in ((2, 4), (1,), (2, 2), (9,), ()):
            with pytest.raises(ValueError):
                frac_spec(primes, [1])
        with pytest.raises(GuardError):
            frac_spec((PRIME_GUARD + 15,), [1])

    def test_prime_count_guard(self, monkeypatch):
        primes = [p for p in range(2, 400) if is_prime(p)][:GROUND_SET_GUARD + 1]
        assert len(frac_spec(primes[:-1], [1]).primes) == GROUND_SET_GUARD

        def no_trial_division(p):
            raise AssertionError("is_prime ran before the prime-count guard")

        monkeypatch.setattr(rationals, "is_prime", no_trial_division)
        with pytest.raises(GuardError):
            frac_spec(primes, [1])

    def test_is_prime_matches_sieve(self):
        sieve = [True] * 1000
        sieve[0] = sieve[1] = False
        for p in range(2, 1000):
            for q in range(p * p, 1000, p):
                sieve[q] = False
        assert [p for p in range(-3, 1000) if is_prime(p)] == \
            [p for p in range(1000) if sieve[p]]
        assert is_prime(PRIME_GUARD - 5) and not is_prime(PRIME_GUARD - 1)


class TestMembership:
    def test_examples(self):
        p = (2, 3)
        f = ValVector(p, (1, 0))
        assert module_member(f, Fraction(1, 2))
        assert not module_member(f, Fraction(1, 4))
        assert module_member(ValVector(p, (POS_INF, 0)), Fraction(1, 1024))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            module_member(one((2, 3)), 0)

    def test_i64_min_entry(self):
        # 1 is in the module only if v_2(1) = 0 >= 2^63
        assert not module_member(ValVector((2, 3), (I64_MIN, 0)), 1)

    def test_generators_are_members(self):
        rng = random.Random(7)
        for _ in range(100):
            spec = random_frac_spec(rng)
            vec = vector_of_module(spec)
            for g in spec.gens:
                assert module_member(vec, g)


class TestColonOracle:
    def test_examples(self):
        p = (2, 3)
        assert colon_oracle(
            frac_spec(p, [1]), frac_spec(p, ["1/2"])
        ) == ValVector(p, (-1, 0))
        assert colon_oracle(
            frac_spec(p, [1]), frac_spec(p, [1])
        ) == one(p)
        assert colon_oracle(
            frac_spec(p, ["1/6"]), frac_spec(p, ["1/2", "1/3"])
        ) == one(p)

    def test_matches_vector_colon(self):
        rng = random.Random(11)
        for _ in range(200):
            spec_i, spec_j = random_frac_spec(rng), random_frac_spec(rng)
            assert colon_oracle(spec_i, spec_j) == vec_colon(
                vector_of_module(spec_i), vector_of_module(spec_j)
            )

    def test_prime_mismatch(self):
        with pytest.raises(ValueError):
            colon_oracle(frac_spec((2,), [1]), frac_spec((3,), [1]))


class TestProductLaw:
    def test_sampled(self):
        rng = random.Random(13)
        for _ in range(100):
            spec_i, spec_j = random_frac_spec(rng), random_frac_spec(rng)
            assert vector_of_module(product_spec(spec_i, spec_j)) == vec_mul(
                vector_of_module(spec_i), vector_of_module(spec_j)
            )


def varied_spec(rng):
    """``random_frac_spec``, and in two draws of three also a unit (a power
    of 7 or 11, primes outside the list) alone or times a generator, and a
    repeat of one generator."""
    spec = random_frac_spec(rng)
    if rng.random() < 1 / 3:
        return spec
    gens = list(spec.gens)
    unit = Fraction(rng.choice((7, 11))) ** rng.choice((-2, -1, 1, 2))
    gens.append(unit * rng.choice(gens + [1]))
    gens.append(rng.choice(gens))
    rng.shuffle(gens)
    return FracIdealSpec(spec.primes, tuple(gens))


class TestAgainstDefinitions:
    """The adapter against its per-(generator, prime) definitions in
    ``conftest``, over 2 000 seeded pairs of specs."""

    PAIRS = 2000

    def test_vector_and_colon(self):
        rng = random.Random(30)
        for _ in range(self.PAIRS):
            spec_i, spec_j = varied_spec(rng), varied_spec(rng)
            assert vector_of_module(spec_i) == vector_by_definition(spec_i)
            assert colon_oracle(spec_i, spec_j) == colon_by_definition(spec_i, spec_j)

    def test_membership(self):
        rng = random.Random(31)
        for _ in range(self.PAIRS):
            spec, other = varied_spec(rng), varied_spec(rng)
            f = vector_of_module(spec)
            # Some entries become +inf, so that both kinds of entry are met.
            f = ValVector(f.primes, tuple(
                POS_INF if rng.random() < 0.2 else e for e in f.entries))
            for r in spec.gens + other.gens:
                assert module_member(f, r) is member_by_definition(f, r)


class TestSpecNormalisation:
    @pytest.mark.parametrize("gens", [
        (3, "3/4", Fraction(-5, 6)),
        (Fraction(3), Fraction(3, 4), "-5/6"),
        ("3", Fraction(6, 8), Fraction(-10, 12)),
    ])
    def test_generators_become_fractions(self, gens):
        primes = (2, 3, 5)
        reference = FracIdealSpec(primes, (Fraction(3), Fraction(3, 4), Fraction(-5, 6)))
        spec = FracIdealSpec(primes, gens)
        assert spec == reference and hash(spec) == hash(reference)
        assert all(type(g) is Fraction for g in spec.gens)
        assert vector_of_module(spec) == vector_of_module(reference)

    @pytest.mark.parametrize("zero", [0, "0", "-0/7", Fraction(0)])
    def test_zero_generator_refused_at_construction(self, zero):
        with pytest.raises(ValueError, match="nonzero"):
            FracIdealSpec((2, 3), (1, zero))


#: The call in a child process: a dropped prime check would loop forever on
#: p = 1 rather than fail, so the parent gives up after a timeout.
MEMBER_ON_PRIMES = """\
from fractions import Fraction
from dedstar.extvec import ValVector
from dedstar.rationals import module_member
try:
    module_member(ValVector(({prime!r},), (0,)), Fraction(3))
except Exception as exc:
    print(type(exc).__name__)
"""


@pytest.mark.parametrize("prime, error", [
    (1, "ValueError"), (0, "ValueError"), (-3, "ValueError"), ("a", "TypeError"),
])
def test_module_member_refuses_a_non_prime_spectrum(prime, error):
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", MEMBER_ON_PRIMES.format(prime=prime)],
                          capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout == error + "\n"


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-6") == -6
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(ValueError):
        parse_rational("1/0")


@pytest.mark.parametrize("text", ["1e3", "0.5", "1_000"])
def test_parse_rational_takes_only_fractions_and_integers(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_rational_digit_guard():
    assert parse_rational(" +" + "9" * RATIONAL_DIGIT_GUARD + "/1 ") == 10 ** 1000 - 1
    for text in ("1" * (RATIONAL_DIGIT_GUARD + 1), "1/" + "1" * (RATIONAL_DIGIT_GUARD + 1)):
        with pytest.raises(GuardError):
            parse_rational(text)
