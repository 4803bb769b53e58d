"""The ``algebra`` workload: a seeded closed loop of star-algebra queries.

``build_pool`` draws the inputs from the workload seed with this file's own
code; the library receives only the generated inputs.  The pool's make-up is
fixed (query kinds, ground-set sizes, family sizes, +inf shares, generator
counts and exponent ranges cycle through fixed strata) and the seed picks
the concrete families, vectors and rationals, so that seeds differ in data
but not in the share of cheap and expensive queries.

One client sends each query after the previous one returns.  Every query
carries a check that answers it by an independent route, run after the
timed loop.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Strata of the input properties behaviour depends on.  Each kind of query
#: draws every stratum equally often; the seed only pairs them up.
#: Ground-set sizes, weighted toward 4 and 5:
N_CYCLE = (1, 2, 3, 3, 4, 4, 4, 5, 5, 5)
#: Distinct random subsets whose intersection closure makes a family: 0 gives
#: the trivial extension (one member), 32 the full power set at any n <= 5.
GEN_COUNTS = (0, 1, 2, 3, 5, 8, 13, 21, 32)
INF_SHARES = (0.0, 0.25, 0.5, 0.75, 1.0)
#: Exponent ranges of generated rationals and of finite vector entries.
EXP_BOUNDS = (1, 3, 8)
GENERATOR_COUNTS = (1, 2, 3, 4)
FAMILIES_PER_CELL = 6
RATIONAL_PRIMES = (2, 3, 5, 7, 11)
#: Not in RATIONAL_PRIMES, so a unit of every localization used here.
UNIT_PRIME = 13

#: Queries per pool, by kind.  No record of how users weigh the kinds
#: exists, so every kind other than the poset tools has the same share.
#: Poset queries come in three size groups: isomorphic pairs of 16 stars for
#: ``poset_iso`` are 1% of the pool and sit between 0.5% larger and 0.5%
#: smaller poset queries, so the 99th percentile falls inside one group of
#: like queries rather than at the edge between two.
QUERIES_PER_KIND = 220
POOL_MIX = {
    **dict.fromkeys((
        "closure", "contains", "apply", "is_closed", "star_le", "classify",
        "vec_mul", "vec_colon", "vec_inf", "vec_le",
        "vector_of_module", "module_member", "colon_oracle",
        "moore_generate", "star_meet", "star_join", "v_apply", "d_apply",
    ), QUERIES_PER_KIND),
    "poset_large": 20, "poset_iso16": 40, "poset_small": 20,
}
#: (kind, stars, isomorphic pair?) per poset query, cycled within a group.
POSET_GROUPS = {
    "poset_large": (("hasse", 32, None), ("poset_iso", 32, True),
                    ("hasse", 48, None), ("poset_iso", 48, False)),
    "poset_iso16": (("poset_iso", 16, True),),
    "poset_small": (("hasse", 4, None), ("poset_iso", 4, True), ("hasse", 8, None),
                    ("poset_iso", 8, False), ("hasse", 12, None)),
}
#: Kinds whose answer is a family or a star (counted by ``families_per_s``).
FAMILY_KINDS = frozenset({"moore_generate", "star_meet", "star_join", "v_apply", "d_apply"})


@dataclass
class Query:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


# ---------------------------------------------------------------------------
# Independent reference computations (plain ints, tuples and Fractions)


def closure_of(masks, n: int) -> Tuple[int, ...]:
    """Smallest intersection-closed family containing the masks and the full set."""
    family = set(masks) | {(1 << n) - 1}
    grown = True
    while grown:
        new = {a & b for a in family for b in family} - family
        grown = bool(new)
        family |= new
    return tuple(sorted(family))


def smallest_member_above(members: Sequence[int], mask: int, n: int) -> int:
    result = (1 << n) - 1
    for m in members:
        if m & mask == mask:
            result &= m
    return result


def plain(vector) -> object:
    """A library vector as a tuple with None for +inf, or the string 'ZERO'."""
    entries = getattr(vector, "entries", None)
    if entries is None:
        return "ZERO"
    return tuple(e if isinstance(e, int) else None for e in entries)


def support_mask(entries: Sequence[Optional[int]]) -> int:
    return sum(1 << i for i, e in enumerate(entries) if e is None)


def valuation(r: Fraction, p: int) -> int:
    v, num, den = 0, r.numerator, r.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def module_vector(gens: Sequence[Fraction], primes: Sequence[int]) -> Tuple[int, ...]:
    """Negated valuation vector of the module the generators span."""
    return tuple(-min(valuation(g, p) for g in gens) for p in primes)


def labels_of(n: int, members: Sequence[int]) -> List[str]:
    """Classification labels, from their definitions on the member list."""
    full = (1 << n) - 1
    count = len(members)
    labels = []
    if count == 1 << n:
        labels.append("identity")
    if count == 1:
        labels.append("trivial-extension")
    base = full
    for m in members:
        base &= m
    upfilter = set(members) == {m for m in range(1 << n) if m & base == base}
    if upfilter:
        labels.append("finite-type")
    if count != 1 << n and count != 1 and count - 1 <= 2:
        labels.append("divisorially-generated")
    if upfilter:
        x = full & ~base
        labels.append("overring-induced X={" + ",".join(
            str(i) for i in range(n) if x >> i & 1) + "}")
    return labels


def covers_of(member_sets: Sequence[frozenset]) -> List[Tuple[int, int]]:
    """Cover pairs of the star order (reverse inclusion of member sets)."""
    k = len(member_sets)
    below = [0] * k  # bit i of below[j]: element i strictly below element j
    above = [0] * k  # bit j of above[i]: the same pair, seen from i
    for j, mj in enumerate(member_sets):
        for i, mi in enumerate(member_sets):
            if mj < mi:
                below[j] |= 1 << i
                above[i] |= 1 << j
    return sorted((i, j) for j in range(k) for i in range(k)
                  if below[j] >> i & 1 and not below[j] & above[i])


def order_profile(member_sets: Sequence[frozenset]) -> List[Tuple[int, int]]:
    """Sorted (elements above, elements below) counts: an order invariant."""
    return sorted(
        (sum(b <= a for b in member_sets), sum(a <= b for b in member_sets))
        for a in member_sets
    )


# ---------------------------------------------------------------------------
# Input generation


def _balanced(values: Sequence, count: int, rng: random.Random) -> list:
    """count draws with each value equally often (to within one), shuffled."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


class _Inputs:
    """Seeded plain-data inputs and their library counterparts."""

    def __init__(self, lib, rng: random.Random) -> None:
        self.lib = lib
        self.rng = rng
        self.families: Dict[Tuple[int, int], list] = {}
        for n in sorted(set(N_CYCLE)):
            for g in GEN_COUNTS:
                cell = []
                for _ in range(FAMILIES_PER_CELL):
                    members = self.random_members(n, g)
                    family = lib.moore.MooreFamily(n, members)
                    cell.append((members, family, lib.stars.Star(tuple(range(n)), family)))
                self.families[(n, g)] = cell

    def random_members(self, n: int, gens: int) -> Tuple[int, ...]:
        return closure_of(self.rng.sample(range(1 << n), min(gens, 1 << n)), n)

    def family(self, n: int, gens: int):
        return self.rng.choice(self.families[(n, gens)])

    def entries(self, n: int, inf_share: float, bound: int) -> Tuple[Optional[int], ...]:
        rng = self.rng
        return tuple(None if rng.random() < inf_share else rng.randint(-bound, bound)
                     for _ in range(n))

    def vector(self, entries: Sequence[Optional[int]], primes=None):
        ext = self.lib.extvec
        primes = tuple(range(len(entries))) if primes is None else tuple(primes)
        return ext.ValVector(primes, tuple(ext.POS_INF if e is None else e for e in entries))

    def rational(self, primes: Sequence[int], bound: int) -> Fraction:
        rng = self.rng
        r = Fraction(UNIT_PRIME) ** rng.randint(-1, 1)
        for p in primes:
            r *= Fraction(p) ** rng.randint(-bound, bound)
        return r

    def gens(self, primes: Sequence[int], count: int, bound: int) -> List[Fraction]:
        return [self.rational(primes, bound) for _ in range(count)]

    def spec(self, primes: Sequence[int], gens: Sequence[Fraction]):
        return self.lib.rationals.FracIdealSpec(tuple(primes), tuple(gens))


def _distinct_stars(inp: _Inputs, k: int, avoid=frozenset()):
    """k stars on five primes with pairwise distinct families."""
    chosen: Dict[Tuple[int, ...], None] = {}
    while len(chosen) < k:
        members = inp.random_members(5, inp.rng.choice(GEN_COUNTS[1:]))
        if members not in avoid:
            chosen.setdefault(members, None)
    lib = inp.lib
    stars = [lib.stars.Star(tuple(range(5)), lib.moore.MooreFamily(5, m)) for m in chosen]
    return stars, [frozenset(m) for m in chosen]


def _poset_query(inp: _Inputs, kind: str, k: int, isomorphic: Optional[bool]) -> Query:
    lib = inp.lib
    M, S = lib.moore, lib.stars
    stars, sets = _distinct_stars(inp, k)
    if kind == "hasse":
        return Query("hasse", lambda: M.hasse(stars, S.star_le),
                     lambda ans: ans == covers_of(sets))
    # An isomorphic pair is a shuffled copy; the other kind swaps one star
    # for another so that an order invariant differs (provably not isomorphic).
    if isomorphic:
        order = list(range(k))
        inp.rng.shuffle(order)
        other, expected = [stars[i] for i in order], True
    else:
        avoid = {tuple(sorted(m)) for m in sets}
        while True:
            extra, extra_sets = _distinct_stars(inp, 1, avoid)
            if order_profile(sets[:-1] + extra_sets) != order_profile(sets):
                break
        other, expected = stars[:-1] + extra, False
    return Query("poset_iso", lambda: M.poset_iso(stars, S.star_le, other, S.star_le),
                 lambda ans: ans is expected)


def _query(inp: _Inputs, kind: str, j: int, n: int, gens: int, share: float,
           bound: int, count: int) -> Query:
    """The j-th query of a kind, on the given strata."""
    lib = inp.lib
    M, S, E, R = lib.moore, lib.stars, lib.extvec, lib.rationals
    rng = inp.rng
    full = (1 << n) - 1
    members, family, star = inp.family(n, gens)

    if kind == "closure":
        mask = rng.randrange(1 << n)
        return Query(kind, lambda: M.closure(family, mask),
                     lambda ans: ans == smallest_member_above(members, mask, n))
    if kind == "contains":
        mask = rng.randrange(1 << n)
        return Query(kind, lambda: mask in family,
                     lambda ans: ans is (mask in set(members)))
    if kind == "apply":
        e = inp.entries(n, share, bound)
        f = inp.vector(e)

        def check_apply(ans, e=e):
            closed = smallest_member_above(members, support_mask(e), n)
            got = plain(ans)
            expected = tuple(None if closed >> i & 1 else x for i, x in enumerate(e))
            # Closure axioms: extensive, +inf support closed, no larger than needed.
            extensive = all(g is None or (x is not None and x <= g) for x, g in zip(e, got))
            return got == expected and extensive and support_mask(got) in members
        return Query(kind, lambda: S.apply(star, f), check_apply)
    if kind == "is_closed":
        e = inp.entries(n, share, bound)
        f = inp.vector(e)
        return Query(kind, lambda: S.is_closed(star, f),
                     lambda ans: ans is (support_mask(e) in members))
    if kind == "star_le":
        members2, _, star2 = inp.family(n, rng.choice(GEN_COUNTS))
        return Query(kind, lambda: S.star_le(star, star2),
                     lambda ans: ans is set(members2).issubset(members))
    if kind == "classify":
        return Query(kind, lambda: S.classify(star), lambda ans: ans == labels_of(n, members))
    # Half the vec_colon queries use random vectors with +inf entries; the
    # other half use finite vectors of rational generators, further below.
    if kind in ("vec_mul", "vec_inf", "vec_le") or (kind == "vec_colon" and j % 2):
        e1, e2 = inp.entries(n, share, bound), inp.entries(n, share, bound)
        if kind == "vec_le" and j % 3:
            e2 = tuple(None if a is None or b is None else a + abs(b) for a, b in zip(e1, e2))
        f, g = inp.vector(e1), inp.vector(e2)
        if kind == "vec_mul":
            expected = tuple(None if a is None or b is None else a + b for a, b in zip(e1, e2))
            return Query(kind, lambda: E.vec_mul(f, g), lambda ans: plain(ans) == expected)
        if kind == "vec_colon":
            vanishes = any(a is not None and b is None for a, b in zip(e1, e2))
            expected = "ZERO" if vanishes else tuple(
                None if a is None else a - b for a, b in zip(e1, e2))
            return Query(kind, lambda: E.vec_colon(f, g), lambda ans: plain(ans) == expected)
        if kind == "vec_le":
            expected = all(b is None or (a is not None and a <= b) for a, b in zip(e1, e2))
            return Query(kind, lambda: E.vec_le(f, g), lambda ans: ans is expected)
        e3 = inp.entries(n, share, bound)
        fs = [f, g, inp.vector(e3)][: 2 + j % 2]
        plains = [e1, e2, e3][: len(fs)]
        expected = tuple(
            None if all(x is None for x in col) else min(x for x in col if x is not None)
            for col in zip(*plains))
        primes = f.primes
        return Query(kind, lambda: E.vec_inf(fs, primes), lambda ans: plain(ans) == expected)

    primes = RATIONAL_PRIMES[:n]
    if kind in ("vec_colon", "vector_of_module", "module_member", "colon_oracle"):
        gens_i = inp.gens(primes, count, bound)
        gens_j = inp.gens(primes, rng.choice(GENERATOR_COUNTS), bound)
        spec_i, spec_j = inp.spec(primes, gens_i), inp.spec(primes, gens_j)
        vi, vj = module_vector(gens_i, primes), module_vector(gens_j, primes)
        if kind == "vec_colon":
            # Finite vectors from rational generators: checked against the
            # exact rational colon.
            f, g = inp.vector(vi, primes), inp.vector(vj, primes)
            return Query(kind, lambda: E.vec_colon(f, g),
                         lambda ans: ans == R.colon_oracle(spec_i, spec_j))
        if kind == "vector_of_module":
            return Query(kind, lambda: R.vector_of_module(spec_i), lambda ans: plain(ans) == vi)
        if kind == "colon_oracle":
            expected = tuple(a - b for a, b in zip(vi, vj))
            return Query(kind, lambda: R.colon_oracle(spec_i, spec_j),
                         lambda ans: plain(ans) == expected)
        e = tuple(None if rng.random() < share else x for x in vi)
        f = inp.vector(e, primes)
        r = inp.rational(primes, bound)
        expected = all(x is None or valuation(r, p) >= -x for x, p in zip(e, primes))
        return Query(kind, lambda: R.module_member(f, r), lambda ans: ans is expected)

    if kind == "moore_generate":
        subsets = rng.sample(range(1 << n), min(gens, 1 << n))
        return Query(kind, lambda: M.moore_generate(subsets, n),
                     lambda ans: (ans.n, ans.members) == (n, closure_of(subsets, n)))
    if kind in ("star_meet", "star_join"):
        others = [inp.family(n, rng.choice(GEN_COUNTS)) for _ in range(1 + j % 2)]
        stars = [star] + [o[2] for o in others]
        sets = [set(members)] + [set(o[0]) for o in others]
        if kind == "star_meet":
            expected = closure_of(set().union(*sets), n)
            return Query(kind, lambda: S.star_meet(stars),
                         lambda ans: ans.family.members == expected)
        expected = tuple(sorted(set.intersection(*sets)))
        return Query(kind, lambda: S.star_join(stars),
                     lambda ans: ans.family.members == expected)
    if kind == "v_apply":
        ej = inp.entries(n, share, bound)
        jv, f = inp.vector(ej), inp.vector(inp.entries(n, share, bound))
        expected = closure_of({support_mask(ej)}, n)

        def v_apply():
            s = S.v_of(jv)
            return s, S.apply(s, f)
        return Query(kind, v_apply, lambda ans: ans[0].family.members == expected
                     and ans[1] == S.v_apply_by_colon(jv, f))
    if kind == "d_apply":
        x = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        base = full & ~sum(1 << i for i in x)
        complement = [i for i in range(n) if base >> i & 1]
        expected = tuple(m for m in range(1 << n) if m & base == base)
        f = inp.vector(inp.entries(n, share, bound))

        def d_apply():
            s = S.d_of_overring(tuple(range(n)), x)
            return s, S.apply(s, f)
        return Query(kind, d_apply, lambda ans: ans[0].family.members == expected
                     and ans[1] == S.d_apply_direct(complement, f))
    raise ValueError(f"unknown query kind {kind!r}")


def build_pool(lib, seed: int) -> List[Query]:
    """The seeded query pool, in the order the client sends it."""
    rng = random.Random(seed)
    inp = _Inputs(lib, rng)
    pool = []
    for kind, count in POOL_MIX.items():
        strata = zip(*(_balanced(values, count, rng) for values in (
            N_CYCLE, GEN_COUNTS, INF_SHARES, EXP_BOUNDS, GENERATOR_COUNTS)))
        for j in range(count):
            if kind in POSET_GROUPS:
                group = POSET_GROUPS[kind]
                pool.append(_poset_query(inp, *group[j % len(group)]))
            else:
                pool.append(_query(inp, kind, j, *next(strata)))
    rng.shuffle(pool)
    return pool


# ---------------------------------------------------------------------------
# The closed loop


class _Raised:
    """An exception a query raised, kept as its answer."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other) -> bool:
        return isinstance(other, _Raised) and other.text == self.text


_UNSET = object()


@dataclass
class PassStats:
    """Timings of one pass over the pool (or of its part before a deadline)."""

    latency_ns: List[int]
    family_answers: int = 0
    complete: bool = True


class LoopState:
    """Answers and repeat mismatches gathered over passes."""

    def __init__(self, pool: Sequence[Query]) -> None:
        self.pool = pool
        self.answers = [_UNSET] * len(pool)
        self.runs = [0] * len(pool)
        self.mismatched = [0] * len(pool)

    @property
    def sent(self) -> int:
        return sum(self.runs)

    def execute(self, deadline_ns: Optional[int] = None) -> PassStats:
        """One pass over the pool, stopping early at the deadline."""
        clock = time.perf_counter_ns
        answers, runs, mismatched = self.answers, self.runs, self.mismatched
        stats = PassStats([])
        latency = stats.latency_ns
        for i, query in enumerate(self.pool):
            if deadline_ns is not None and clock() >= deadline_ns:
                stats.complete = False
                break
            start = clock()
            try:
                answer = query.call()
            except Exception as exc:  # a failed query, checked below
                answer = _Raised(exc)
            took = clock() - start
            latency.append(took)
            runs[i] += 1
            if query.kind in FAMILY_KINDS:
                stats.family_answers += 1
            if answers[i] is _UNSET:
                answers[i] = answer
            elif answer != answers[i]:
                mismatched[i] += 1
        return stats

    def failures(self) -> int:
        """Executions whose answer fails its check or differs from the
        query's first answer."""
        failed = 0
        for query, answer, runs, mismatched in zip(
                self.pool, self.answers, self.runs, self.mismatched):
            if runs == 0:
                continue
            try:
                ok = not isinstance(answer, _Raised) and bool(query.check(answer))
            except Exception:  # a malformed answer fails its check
                ok = False
            failed += runs if not ok else mismatched
        return failed
