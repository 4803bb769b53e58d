"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The n=5 census is computed once per session and shared.
"""

import itertools
import random
import time

import pytest

from conftest import (
    dagger_bounded_oracle, violates_closed_family_conditions, windowed_vectors)

from dedstar import extvec, moore, stars, verify
from dedstar.extvec import POS_INF, ValVector, inf_support, vec_inf, vec_le
from dedstar.moore import (
    GuardError,
    count_moore,
    enumerate_moore,
    is_principal_upfilter,
    mask_of,
    moore_generate,
)
from dedstar.stars import (
    apply,
    d_of_overring,
    dagger_supports,
    default_primes,
    star_from_moore,
    star_join,
    star_meet,
)

TABLE1 = {1: 2, 2: 7, 3: 61, 4: 2480, 5: 1385552}


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, name


@pytest.fixture(scope="session")
def census():
    counts = {}
    timings = {}
    for n in range(1, 6):
        start = time.monotonic()
        counts[n] = count_moore(n)
        timings[n] = time.monotonic() - start
    return counts, timings


def passed(checks):
    return all(ok for _, ok in checks)


def test_criterion_1_table_reproduction(census):
    counts, timings = census
    assert moore.KNOWN_COUNTS == TABLE1
    ok = passed(verify.table1(5))
    ok = ok and all(timings[n] <= 1.0 for n in range(1, 5))
    ok = ok and timings[5] <= 600.0
    guard_refused = False
    try:
        count_moore(6)
    except GuardError:
        guard_refused = True
    report(
        "criterion 1: family counts 2,7,61,2480,1385552 for n=1..5; n>=6 guarded",
        ok and guard_refused,
        f"counts={[counts[n] for n in range(1, 6)]}, n5 time={timings[5]:.1f}s",
    )


def test_criterion_2_bounds():
    report("criterion 2: 2^C(n,[n/2]) <= count <= 2^2^n for n=1..5",
           passed(verify.bounds(5)))


def test_criterion_3_finite_type_census():
    ok = all(passed(verify.finite_type(n)) for n in range(1, 5))
    primes5 = default_primes(5)
    built = [
        d_of_overring(primes5, x)
        for k in range(6)
        for x in itertools.combinations(range(5), k)
    ]
    ok = ok and len({s.family.members for s in built}) == 32
    ok = ok and all(is_principal_upfilter(s.family) for s in built)
    rng = random.Random(42)
    rejected = 0
    while rejected < 100:
        gens = {rng.randrange(32) for _ in range(rng.randint(1, 4))}
        fam = moore_generate(gens, 5)
        base = fam.members[0]
        upfilter = set(fam.members) == {m for m in range(32) if m & base == base}
        assert is_principal_upfilter(fam) == upfilter
        rejected += not upfilter
    report(
        "criterion 3: finite-type census 2^n for n<=4; 32 overring stars at n=5; "
        "100 non-up-filters rejected",
        ok,
    )


def test_criterion_4_n2_lattice_shape():
    start = time.monotonic()
    ok = passed(verify.n2_shape())
    elapsed = time.monotonic() - start
    report(
        "criterion 4: 7-element star lattice is the cube on {1,2,3} minus {1}",
        ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_5_colon_oracle_equivalence():
    report(
        "criterion 5: colon oracle equals vector colon on 1000 random pairs",
        passed(verify.colon_oracle(1000, seed=1000)),
    )


def test_criterion_6_nucleus_axiom_suite():
    report(
        "criterion 6: closure/nucleus/residuation axioms on 10000 samples at n<=4",
        passed(verify.axioms(10000, seed=2000, max_n=4)),
    )


def test_criterion_7_dagger_oracle_agreement():
    primes = (2, 3)
    bound = 3
    # pool: indicator vectors of each support plus variants with finite noise
    pool = []
    for support_mask in range(4):
        support = [i for i in range(2) if support_mask >> i & 1]
        pool.append(extvec.iota(primes, support))
        pool.append(ValVector(primes, tuple(
            POS_INF if i in support else 1 - 2 * i for i in range(2)
        )))
    checked = 0
    for size in range(4):
        for gens in itertools.combinations(pool, size):
            family = dagger_supports(gens, primes)
            materialized = dagger_bounded_oracle(list(gens), primes, bound)
            members = set(family.members)
            for v in windowed_vectors(primes, bound):
                expected = mask_of(inf_support(v), 2) in members
                assert (v in materialized) == expected
                checked += 1
    report(
        "criterion 7: bounded dagger closure matches support-family membership",
        True,
        f"{checked} windowed membership checks",
    )


def test_criterion_8_meet_join_laws():
    rng = random.Random(3000)
    primes = default_primes(3)
    families = list(enumerate_moore(3))
    star_list = [star_from_moore(f) for f in families]
    samples = [verify.random_vector(rng, primes) for _ in range(20)]
    closed_pool = windowed_vectors(primes, 2)
    for s1, s2 in itertools.product(star_list, repeat=2):
        m = star_meet([s1, s2])
        j = star_join([s1, s2])
        for f in samples:
            assert apply(m, f) == vec_inf([apply(s1, f), apply(s2, f)], primes)
            jf = apply(j, f)
            assert stars.is_closed(s1, jf) and stars.is_closed(s2, jf)
            assert vec_le(f, jf)
    # minimality of the join among sampled closed upper bounds
    for s1, s2 in zip(star_list[::7], star_list[1::7]):
        j = star_join([s1, s2])
        for f in samples[:5]:
            jf = apply(j, f)
            for g in closed_pool:
                if vec_le(f, g) and stars.is_closed(s1, g) and stars.is_closed(s2, g):
                    assert vec_le(jf, g)
    report("criterion 8: meet is pointwise infimum, join is least common closure "
           "over all 61x61 pairs at n=3", True)


def test_criterion_9_closed_family_characterization():
    primes = (2, 3)
    bound = 2
    for fam in enumerate_moore(2):
        reason = violates_closed_family_conditions(fam.members, primes, bound)
        assert reason is None, (fam, reason)
    rng = random.Random(4000)
    rejected = 0
    while rejected < 20:
        members = {m for m in range(4) if rng.random() < 0.5}
        if moore.is_moore(members, 2):
            continue
        reason = violates_closed_family_conditions(members, primes, bound)
        assert reason is not None, members
        rejected += 1
    report("criterion 9: 7 Moore families satisfy the closed-set conditions; "
           "20 non-Moore families violate one", True)
