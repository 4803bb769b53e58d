"""Intersection-closed set families on small ground sets.

Subsets of {0..n-1} are encoded as integer bit patterns.  A family is stored
as the ascending tuple of its member encodings; the full set is always a
member (it is the empty intersection).  One recursion, take or skip the
least candidate, both walks and counts every family on n points.
``enumerate_moore`` and ``enumerate_record_texts`` walk it in canonical
order on one explicit stack of states, and hand out each state of at most 4
candidates as one memoised block of at most 16 families; a state of more is
walked again on each visit.  Only ``_block`` reads or writes the memo.
``count_moore`` counts the same families without walking them, through a
memo keyed by the same ``_state_key``.  Both keep a later candidate by one
child rule, ``_child_candidates``, a product of down-sets.  No memo, table
or text outlives a call, and no call leaves a reference cycle.
Also houses generic finite-poset utilities: cover relations, brute-force
order-isomorphism, DOT export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
    TypeVar)

_T = TypeVar("_T")
#: ``_lanes``' table: for each subset c, the steps of the fold onto c.
_Lanes = List[List[Tuple[int, int]]]

#: Exact family counts for small ground sets, used by guards and verification.
KNOWN_COUNTS = {1: 2, 2: 7, 3: 61, 4: 2480, 5: 1385552}

ENUMERATION_GUARD = 5
ISO_GUARD = 200
#: Largest ground set a family record or an overring star may have: far past
#: what can be enumerated, and every subset encoding fits in 64 bits.
GROUND_SET_GUARD = 64
#: Most members a generated family may reach: folding k subsets can build 2^k
#: members.
FOLD_GUARD = 2 ** 12
#: Most members a family record may have: 2^16, the largest family dedstar
#: prints, ``star d-of`` localized at ``stars.D_OF_GUARD`` = 16 primes.
RECORD_GUARD = 2 ** 16
#: Most work an intersection closure may do, in members visited summed over
#: its folds: about 1 s at 15 M units/s.  The 2^16-member ``star d-of`` record
#: takes 2^16 - 1 units; every subset of at most 3 of 48 points, plus the full
#: set, would take 168 M.
FOLD_WORK_GUARD = 2 ** 24


class GuardError(RuntimeError):
    """A size guard refused the operation."""


def guard_ground_set(n: int) -> None:
    if n > GROUND_SET_GUARD:
        raise GuardError(f"ground set of {n} elements exceeds {GROUND_SET_GUARD}")


def mask_of(indices: Iterable[int], n: int) -> int:
    mask = 0
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for ground set of size {n}")
        mask |= 1 << i
    return mask


def indices_of(mask: int) -> List[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _intersection_closure(subsets: Set[int], n: int, limit: int) -> Optional[Set[int]]:
    """Smallest intersection-closed family on n points holding ``subsets``, or
    None once it passes ``limit`` members.  Each s, in descending order, is
    folded into {full} as members | {s & m : m in members}; as s & t <= min(s,
    t), a meet comes up after both its sides and is skipped as present, so only
    meet-irreducibles are folded.  Every set on the way lies inside the closure
    and a fold at most doubles it, so the check after each fold refuses exactly
    the larger closures and keeps the set below twice ``limit``.  A fold visits
    every member so far, and past ``FOLD_WORK_GUARD`` visits in all the
    closure is refused with ``GuardError``, as is a ground set past
    ``GROUND_SET_GUARD``, before any fold."""
    guard_ground_set(n)
    full = (1 << n) - 1
    ordered = sorted(subsets, reverse=True)
    if ordered and not (ordered[0] <= full and ordered[-1] >= 0):
        raise ValueError("subset out of range")
    members = {full}
    work = 0
    for s in ordered:
        if s not in members:
            work += len(members)
            if work > FOLD_WORK_GUARD:
                raise GuardError(
                    f"intersection closure exceeds {FOLD_WORK_GUARD} units of work")
            members |= {s & m for m in members}
            if len(members) > limit:
                return None
    return members


def is_moore(subsets: Iterable[int], n: int) -> bool:
    """Full set present and closed under intersection: the subsets are their
    own closure.  A set of m subsets that is not has a larger closure, so the
    fold stops once it passes m members."""
    members = set(subsets)
    return _intersection_closure(members, n, len(members)) == members


@dataclass(frozen=True)
class MooreFamily:
    """An intersection-closed family; members ascending by encoding."""

    n: int
    members: Tuple[int, ...]

    def __post_init__(self) -> None:
        guard_ground_set(self.n)  # before is_moore builds 1 << n
        if self.n < 1:
            raise ValueError("ground set must be nonempty (n >= 1)")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate member")
        if list(self.members) != sorted(self.members):
            raise ValueError("members must be ascending")
        if not is_moore(self.members, self.n):
            raise ValueError("family is not intersection-closed with full set")

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def member_set(self) -> frozenset:
        """The members as a frozenset, for order tests.  The ascending tuple
        stays the family's one representation; this is an index built from
        it the first time it is asked for, also on ``_trusted`` families, and
        not a field, so equality, hashing and records ignore it."""
        return frozenset(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    @classmethod
    def _trusted(cls, n: int, members: Tuple[int, ...]) -> "MooreFamily":
        """Build without the checks, for members the search already checked."""
        family = object.__new__(cls)
        vars(family).update(n=n, members=members)
        return family


def moore_generate(subsets: Iterable[int], n: int) -> MooreFamily:
    """Smallest intersection-closed family containing the subsets, refused once
    it passes ``FOLD_GUARD`` members.  Validated once."""
    members = _intersection_closure(set(subsets), n, FOLD_GUARD)
    if members is None:
        raise GuardError(f"generated family exceeds {FOLD_GUARD} members")
    return MooreFamily(n, tuple(sorted(members)))


def closure(family: MooreFamily, mask: int) -> int:
    """Smallest member containing the given subset."""
    if not 0 <= mask <= family.full:
        raise ValueError("subset out of range")
    result = family.full
    for m in family.members:
        if mask & m == mask:
            result &= m
    return result


def family_meet(first: MooreFamily, *rest: MooreFamily) -> MooreFamily:
    """Members common to every family, intersected at once; intersection
    closure is inherited, and the result is validated once."""
    if any(f.n != first.n for f in rest):
        raise ValueError("ground sets differ")
    common = set(first.members).intersection(*(f.members for f in rest))
    return MooreFamily(first.n, tuple(sorted(common)))


def family_join(first: MooreFamily, *rest: MooreFamily) -> MooreFamily:
    """Smallest family containing every family: ``moore_generate`` over the
    union of their members."""
    if any(f.n != first.n for f in rest):
        raise ValueError("ground sets differ")
    return moore_generate(set(first.members).union(*(f.members for f in rest)), first.n)


def _searchable_full_set(n: int) -> int:
    """The full set of {0..n-1}, once n passes the family search's guard."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_GUARD:
        raise GuardError(
            f"the family search at n={n} exceeds the n <= {ENUMERATION_GUARD} guard "
            f"(the count is already {KNOWN_COUNTS[ENUMERATION_GUARD]} at "
            f"n={ENUMERATION_GUARD})")
    return (1 << n) - 1


#: A search state with at most this many candidates is built once, as one
#: memoised block of at most 2^4 = 16 suffix folds, and handed out whole; a
#: larger state is walked again on every visit.  ``enumerate_record_texts(5)``
#: process time and peak RSS over a 16 MB start, by block bound, 3 runs each
#: on a shared 2-core VM with Python 3.11: 3, 0.35-0.63 s, +0.25 MB; 4,
#: 0.22-0.41 s, +1.12 MB; 5, 0.16-0.22 s, +3.62 MB; 6, 0.14-0.24 s, +9.38 MB.
#: Past 4 a block grows the memory faster than the time falls.  At n = 5 the
#: search keeps one memo of 2 234 blocks, of take and skip states alike.
BLOCK_CANDIDATES = 4


def _closed_blocks(full: int, start: _T, items: Sequence[_T], last: _T
                   ) -> Iterator[Tuple[_T, Tuple[_T, ...]]]:
    """Every family below ``full`` once, in canonical order, as pairs (prefix
    fold, block): the families are ``prefix + s`` for each s in the block.  A
    fold of proper members c_1 < ... < c_k is ``start + items[c_1] + ... +
    items[c_k]``, and every suffix in a block ends in the closing piece
    ``last``, so ``str`` and ``tuple`` pieces both work.  The search behind
    ``enumerate_moore`` and ``enumerate_record_texts``.

    A state is (fold, present, cands): a prefix P of ascending members, with
    bit s of ``present`` set iff s is in P, and the candidates still to add,
    the bits of ``cands``, each past max(P).  Its families are P + S +
    [full] for the sets S of candidates that ``_completions`` counts.  The
    search branches two ways on the least candidate c, as the counter does:
    first the families that take c, at P + [c] over the later candidates
    that ``_child_candidates`` keeps, then those that skip it, at P over the
    later candidates; so P + [full], reached by skipping every candidate,
    comes last.  The loop pops a state: one of at most ``BLOCK_CANDIDATES``
    candidates goes out as its block from ``_block``, and a larger one
    pushes its skip state, then its take state.  The stack is explicit:
    ``yield from`` over nested generators made the search about 40% slower.
    The memo of blocks, the down-sets of ``_down_sets`` and the fold steps of
    ``_lanes`` are built once per call, and ``_block`` is a module-level
    function, so nothing outlives the call and no reference cycle holds it.
    """
    width = full + 1
    down = _down_sets(width)
    lanes = _lanes(down)
    memo, meets = {}, {}
    stack = [(start, 0, (1 << full) - 1)]
    while stack:
        fold, present, cands = stack.pop()
        if cands.bit_count() <= BLOCK_CANDIDATES:
            yield fold, _block(memo, meets, down, lanes, width, items, last, present,
                               cands)
            continue
        low = cands & -cands
        c = low.bit_length() - 1
        rest = cands ^ low
        stack.append((fold, present, rest))
        stack.append((fold + items[c], present | low,
                      _child_candidates(down, width, present, c, rest)))


def _child_candidates(down: List[int], width: int, present: int, c: int,
                      later: int) -> int:
    """The candidates of the child that adds c to a prefix (bit s of
    ``present`` set iff s is in it): the bits d of ``later``, the candidates
    after c, with d & c in A, the prefix members inside c and c itself.  The
    one child rule, of the search and of the counter.

    Those d are one product of down-sets (``down``, from ``_down_sets``).
    Each subset d is v | t for v = d & c and t = d & ~c, and it is kept iff
    v is in A, so the kept subsets are the v | t for v in A and t inside
    full ^ c.  As v and t are disjoint, 2^(v | t) = 2^v * 2^t, and the
    bitmask of the kept subsets is (bitmask of A) * down[full ^ c].  The
    product has no carries: each pair (v, t) gives a different v | t, so no
    two of its terms set the same bit."""
    return later & (present & down[c] | 1 << c) * down[(width - 1) ^ c]


def _pair_meets(meets: Dict[int, int], lanes: _Lanes, cands: int) -> int:
    """Bitmask of the pairwise meets d & e of the candidates, the bits of
    ``cands``, for the memo key.  With c the least candidate and rest the
    others, the pairs are those of rest and (c, d) for each d in rest, so
    meets(cands) = meets(rest) | image, where image, the bitmask of
    {c & d : d in rest}, is rest folded onto the subsets of c: linear in the
    candidates, not quadratic.  meets(rest) is read from ``meets``, or built
    the same way and stored there on a miss, and is 0 when rest has at most
    one bit.  One level of recursion per candidate, so at most 2^n - 1 deep
    on n points: 31 at n = 5.

    The fold takes one step per point p outside c (p its bit value, 1 << i),
    from ``lanes[c]``, the pairs (down[full ^ p], p) of ``_lanes``: it moves
    the bit of each subset x | p onto x, by rest | rest >> p, and keeps the
    subsets without p, by & down[full ^ p].  That maps each d to d & ~p, so
    all the steps map it to d & c: n - |c| steps of three int operations,
    not one loop step per candidate."""
    low = cands & -cands
    rest = cands ^ low
    relevant = 0
    if rest & (rest - 1):
        relevant = meets.get(rest)
        if relevant is None:
            relevant = meets[rest] = _pair_meets(meets, lanes, rest)
    for inside, p in lanes[low.bit_length() - 1]:
        rest = (rest | rest >> p) & inside
    return relevant | rest


def _state_key(meets: Dict[int, int], lanes: _Lanes, width: int, present: int,
               cands: int) -> int:
    """The memo key of a state of the search or of the counter: a prefix
    (bit s of ``present`` set iff s is in it) and its candidates, the bits
    of ``cands``.  The key is the candidates over the prefix members among
    their pairwise meets, each a bitmask over the ``width`` subsets;
    ``meets`` holds each candidate set's pairwise meets, built by
    ``_pair_meets`` from those of the set without its least candidate c,
    which it reads from ``meets`` or stores there, and the meets with c:
    the others folded onto the subsets of c, one step (rest | rest >> p) &
    down[full ^ p] per point p outside c, from ``lanes``.  The only builder
    of a memo key."""
    relevant = meets.get(cands)
    if relevant is None:
        relevant = meets[cands] = _pair_meets(meets, lanes, cands)
    return cands << width | (relevant & present)


def _block(memo: Dict[int, Tuple], meets: Dict[int, int], down: List[int],
           lanes: _Lanes, width: int, items: Sequence[_T], last: _T, present: int,
           cands: int) -> Tuple[_T, ...]:
    """The suffix folds of every family at and below a state of
    ``_closed_blocks``' search, in canonical order: a prefix (bit s of
    ``present`` set iff s is in it) and its at most ``BLOCK_CANDIDATES``
    candidates, the bits of ``cands``.  With none it is ``(last,)``.  The one
    reader and writer of the search's ``memo``, keyed by ``_state_key``: on
    a miss it branches on the least candidate c as ``_completions`` does,
    the block of the take state with ``items[c]`` before each suffix and
    then the block of the skip state, and keeps the result."""
    if not cands:
        return (last,)
    key = _state_key(meets, lanes, width, present, cands)
    block = memo.get(key)
    if block is None:
        low = cands & -cands
        c = low.bit_length() - 1
        rest = cands ^ low
        take = _block(memo, meets, down, lanes, width, items, last, present | low,
                      _child_candidates(down, width, present, c, rest))
        skip = _block(memo, meets, down, lanes, width, items, last, present, rest)
        # One tuple from a list: tuple() of a generator resizes its tuple, and
        # those freed each call grew the benchmark's stream peak RSS by about
        # 0.12 MB a job on CPython 3.11.
        block = memo[key] = (*[items[c] + s for s in take], *skip)
    return block


def _down_sets(width: int) -> List[int]:
    """``down[x]`` is the bitmask of the subsets of x, for each of the
    ``width`` subsets: those of x without its lowest element ``low``, each
    as it is and with ``low`` added, which multiplies its bit by 2^low."""
    down = [1]
    for x in range(1, width):
        low = x & -x
        down.append(down[x ^ low] * (1 + (1 << low)))
    return down


def _lanes(down: List[int]) -> _Lanes:
    """``lanes[c]`` lists the steps of ``_pair_meets``' fold onto the subsets
    of c, for each subset c that ``down`` lists: one pair (down[full ^ p], p),
    the subsets without p and p, for each point p outside c, as its bit
    value 1 << i, ascending.  Those of c are the step of its least point p
    outside it and then those of c | p, so each list is built from one
    already built.  Lists, not tuples: ``tuple()`` of a generator resizes
    its tuple, and on CPython 3.11 the tuples freed each call piled up in
    the interpreter's free lists, 0.5 MB of peak RSS over the benchmark's
    10 s census."""
    full = len(down) - 1
    lanes = [[]] * len(down)
    for c in reversed(range(full)):
        p = (c + 1) & ~c
        lanes[c] = [(down[full ^ p], p), *lanes[c | p]]
    return lanes


def _completions(memo: Dict[int, int], meets: Dict[int, int], down: List[int],
                 lanes: _Lanes, width: int, present: int, cands: int) -> int:
    """Families at and below a state of ``_closed_blocks``' search: a prefix
    (bit s of ``present`` set iff s is in it) and its candidates, the bits
    of ``cands``, each past every prefix member.

    That is the number of sets S of candidates with d & e in the prefix or
    in S for all d, e in S: the search adds S's members in ascending order,
    and keeps a later candidate d after adding c iff d & c, which is at most
    c, is present by then.  The count branches on the least candidate c as
    the search does: the sets without c, at the skip state, plus the sets
    with c, at the take state, the prefix grown by c over the later
    candidates that ``_child_candidates`` keeps.

    Whether each meet of two candidates is in the prefix is all that the
    number reads of the prefix.  So ``memo`` is keyed by ``_state_key``, as
    the search's blocks are, take and skip states alike.  A module-level
    function, not a closure: a recursive closure is a reference cycle that
    keeps ``memo``, ``meets``, ``down`` and ``lanes`` alive until the cycle
    collector runs.
    """
    if not cands & (cands - 1):
        return 1 + (cands != 0)
    key = _state_key(meets, lanes, width, present, cands)
    total = memo.get(key)
    if total is None:
        low = cands & -cands
        c = low.bit_length() - 1
        rest = cands ^ low
        total = memo[key] = (
            _completions(memo, meets, down, lanes, width, present, rest)
            + _completions(memo, meets, down, lanes, width, present | low,
                           _child_candidates(down, width, present, c, rest)))
    return total


def count_moore(n: int) -> int:
    """Number of intersection-closed families on an n-element ground set."""
    full = _searchable_full_set(n)
    width = full + 1
    down = _down_sets(width)
    return _completions({}, {}, down, _lanes(down), width, 0, (1 << full) - 1)


def enumerate_moore(n: int) -> Iterator[MooreFamily]:
    """All families exactly once, ascending in canonical serialization.  An n
    past the guard is refused at the call, not at the first ``next``."""
    full = _searchable_full_set(n)
    items = [(c,) for c in range(full)]
    return (MooreFamily._trusted(n, prefix + suffix)
            for prefix, block in _closed_blocks(full, (), items, (full,))
            for suffix in block)


def enumerate_record_texts(n: int) -> Iterator[str]:
    """``family_record_text(f) + "\\n"`` for every f of ``enumerate_moore(n)``,
    concatenated a block of the search at a time: one join of up to 16
    records, each the block's prefix text plus a memoised suffix.  Refused at
    the call, like ``enumerate_moore``."""
    full = _searchable_full_set(n)
    items = [_member_text(c) + "," for c in range(full)]
    last = _member_text(full) + _RECORD_TAIL + "\n"
    return (prefix + prefix.join(block)
            for prefix, block in _closed_blocks(full, _RECORD_HEAD % n, items, last))


def is_principal_upfilter(family: MooreFamily) -> bool:
    """Is the family exactly all supersets of its minimum member?  A star is
    of finite type exactly when its family passes; its base is then
    ``family.members[0]``."""
    # The least member is the meet of all members, a member itself, and a
    # subset of every member, so it comes first in ascending order; the
    # family holds only supersets of it, and is all of them iff it has as many.
    base = family.members[0]
    return len(family.members) == 2 ** (family.n - bin(base).count("1"))


def binom_lower_bound(n: int) -> int:
    """2^C(n, floor(n/2)): lower bound for the family count."""
    if not 1 <= n <= 7:
        raise ValueError("bound is tabulated for 1 <= n <= 7")
    return 2 ** math.comb(n, n // 2)


def family_to_record(family: MooreFamily) -> dict:
    return {"n": family.n, "members": [indices_of(m) for m in family.members]}


def _member_text(mask: int) -> str:
    """Record text of a subset, e.g. 0b101 -> "[0,2]"."""
    return "[" + ",".join(map(str, indices_of(mask))) + "]"


#: A family record's text is head % n, the member texts joined by ",", tail.
_RECORD_HEAD = '{"n":%s,"members":['
_RECORD_TAIL = "]}"


def family_record_text(family: MooreFamily) -> str:
    """``json.dumps(family_to_record(family), separators=(",", ":"))``."""
    members = ",".join(map(_member_text, family.members))
    return _RECORD_HEAD % family.n + members + _RECORD_TAIL


def family_from_record(record: dict) -> MooreFamily:
    n = record["n"]
    # bool is an int subclass: without these checks JSON true reads as 1
    if type(n) is not int:
        raise TypeError(f"n must be an integer, not {n!r}")
    guard_ground_set(n)  # before mask_of builds 1 << i for an index up to n - 1
    rows = record["members"]
    if any(type(i) is not int for row in rows for i in row):
        raise TypeError("member indices must be integers")
    if len(rows) > RECORD_GUARD:  # before mask_of and validation
        raise GuardError(f"family record of {len(rows)} members exceeds {RECORD_GUARD}")
    return MooreFamily(n, tuple(sorted(mask_of(row, n) for row in rows)))


# ---------------------------------------------------------------------------
# Finite poset utilities


def _order_masks(elements: Sequence, leq: Callable) -> Tuple[List[int], List[int]]:
    """The order as bitmasks, from one ``leq`` call per ordered pair of
    distinct elements: bit j of ``up[i]`` and bit i of ``down[j]`` are set iff
    elements[i] <= elements[j].  ``leq`` is assumed reflexive, so no element
    is compared with itself and no mask holds its own bit."""
    k = len(elements)
    up = [0] * k
    down = [0] * k
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            if i != j and leq(a, b):
                up[i] |= 1 << j
                down[j] |= 1 << i
    return up, down


def hasse(elements: Sequence, leq: Callable) -> List[Tuple[int, int]]:
    """Cover relations as (lower index, upper index) pairs, from the order
    masks of ``_order_masks``; ``leq`` is assumed reflexive.  ``below[j]`` and
    ``above[i]`` drop the ties, so tied elements of a preorder are never
    strictly below each other.  i is covered by j iff i is strictly below j
    and nothing strictly below j is strictly above i."""
    k = len(elements)
    up, down = _order_masks(elements, leq)
    above = [u & ~d for u, d in zip(up, down)]
    covers = []
    for j in range(k):
        below = down[j] & ~up[j]
        for i in range(k):
            if below >> i & 1 and not below & above[i]:
                covers.append((i, j))
    return sorted(covers)


def poset_iso(
    elements1: Sequence,
    leq1: Callable,
    elements2: Sequence,
    leq2: Callable,
) -> bool:
    """Brute-force search for an order isomorphism between two preorders,
    each read once through ``_order_masks``; ``leq1`` and ``leq2`` are assumed
    reflexive.

    For an anti-isomorphism, pass the reversed order as leq2.  Candidates are
    pruned by up-set/down-set size profiles before the backtracking bijection
    search.
    """
    k = len(elements1)
    if k != len(elements2):
        return False
    if k > ISO_GUARD:
        raise GuardError(f"isomorphism search on {k} elements exceeds {ISO_GUARD}")

    up1, down1 = _order_masks(elements1, leq1)
    up2, down2 = _order_masks(elements2, leq2)
    prof1 = [(u.bit_count(), d.bit_count()) for u, d in zip(up1, down1)]
    prof2 = [(u.bit_count(), d.bit_count()) for u, d in zip(up2, down2)]
    if sorted(prof1) != sorted(prof2):
        return False

    candidates = [
        [j for j in range(k) if prof2[j] == prof1[i]] for i in range(k)
    ]
    order = sorted(range(k), key=lambda i: len(candidates[i]))
    return _extend(order, candidates, {}, [False] * k, up1, down1, up2, down2)


def _extend(order: List[int], candidates: List[List[int]], image: Dict[int, int],
            used: List[bool], up1: List[int], down1: List[int], up2: List[int],
            down2: List[int]) -> bool:
    """Does ``image``, one-to-one from the first len(image) elements of
    ``order`` onto the ``used`` ones, extend to all of ``order``?  A
    module-level function, not a closure, for the reason in ``_completions``."""
    if len(image) == len(order):
        return True
    i = order[len(image)]
    for j in candidates[i]:
        if used[j]:
            continue
        for i2, j2 in image.items():
            if (up1[i] >> i2 & 1 != up2[j] >> j2 & 1
                    or down1[i] >> i2 & 1 != down2[j] >> j2 & 1):
                break
        else:
            image[i] = j
            used[j] = True
            if _extend(order, candidates, image, used, up1, down1, up2, down2):
                return True
            del image[i]
            used[j] = False
    return False


def hasse_dot(labels: Sequence[str], edges: Iterable[Tuple[int, int]]) -> str:
    """DOT digraph with edges from lower cover to upper cover."""
    lines = ["digraph hasse {"]
    for idx, label in enumerate(labels):
        lines.append(f'  n{idx} [label="{label}"];')
    for lo, hi in edges:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
