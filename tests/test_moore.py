import collections
import dataclasses
import functools
import gc
import itertools
import json
import random
import tracemalloc
import types

import pytest

from conftest import (
    hasse_by_definition, iso_by_permutations, pair_meets_by_definition,
    pairwise_closure, random_preorder)

from dedstar import moore
from dedstar.moore import (
    GROUND_SET_GUARD,
    GuardError,
    KNOWN_COUNTS,
    MooreFamily,
    binom_lower_bound,
    closure,
    count_moore,
    enumerate_moore,
    enumerate_record_texts,
    family_from_record,
    family_join,
    family_meet,
    family_record_text,
    family_to_record,
    hasse,
    hasse_dot,
    indices_of,
    is_moore,
    is_principal_upfilter,
    mask_of,
    moore_generate,
    poset_iso,
)
from dedstar.stars import d_of_overring


def powerset_family(n):
    return MooreFamily(n, tuple(range(1 << n)))


def search_children(present, cands):
    """Each child of a search state, in order, as (added candidate c, grown
    prefix, the child's candidates)."""
    for i, c in enumerate(cands):
        grown = present | 1 << c
        yield c, grown, [d for d in cands[i + 1:] if grown >> (d & c) & 1]


def search_states(present, cands):
    """Every state of the family search at and below a prefix (bit s of
    ``present`` set iff s is in it) with ascending candidates ``cands``."""
    yield present, cands
    for _, grown, rest in search_children(present, cands):
        yield from search_states(grown, rest)


def stream_states(present, cands):
    """Every state that the stream search pops, at and below a prefix (bit s
    of ``present`` set iff s is in it) with ascending candidates ``cands``:
    a state of more than ``BLOCK_CANDIDATES`` candidates is followed by the
    states below its take state, the first child, and then by those below
    its skip state, itself without its least candidate."""
    yield present, cands
    if len(cands) > moore.BLOCK_CANDIDATES:
        _, grown, rest = next(search_children(present, cands))
        yield from stream_states(grown, rest)
        yield from stream_states(present, cands[1:])


def search_suffixes(present, cands):
    """The members that each family at and below a state of the search adds
    to its prefix, without a memo."""
    yield ()
    for c, grown, rest in search_children(present, cands):
        for suffix in search_suffixes(grown, rest):
            yield (c, *suffix)


def watch_stream(monkeypatch):
    """Watch the stream search: the memo of every ``_block`` call, and each
    state the search descends into, a take state that ``_child_candidates``
    gives more than ``BLOCK_CANDIDATES`` candidates (no take state inside a
    block has that many), as (its prefix, its candidates)."""
    block, child_candidates = moore._block, moore._child_candidates
    memos, descents = [], []

    def watched_block(memo, *args):
        memos.append(memo)
        return block(memo, *args)

    def watched_child_candidates(down, width, present, c, later):
        kept = child_candidates(down, width, present, c, later)
        if kept.bit_count() > moore.BLOCK_CANDIDATES:
            descents.append((present | 1 << c, kept))
        return kept

    monkeypatch.setattr(moore, "_block", watched_block)
    monkeypatch.setattr(moore, "_child_candidates", watched_child_candidates)
    return memos, descents


def stream_census(monkeypatch, n):
    """Drain ``enumerate_record_texts(n)`` under ``watch_stream`` and give
    (memo size, its tuples, its lists, chunks, descents); every ``_block``
    call must share one memo."""
    memos, descents = watch_stream(monkeypatch)
    chunks = sum(1 for _ in enumerate_record_texts(n))
    memo = memos[0]
    assert all(m is memo for m in memos)
    kinds = collections.Counter(value.__class__ for value in memo.values())
    return len(memo), kinds[tuple], kinds[list], chunks, len(descents)


class TestIsMoore:
    def test_examples(self):
        assert is_moore({0b11}, 2)
        assert not is_moore({0b01, 0b10, 0b11}, 2)  # missing {0} & {1} = {}
        assert is_moore({0b00, 0b01, 0b11}, 2)

    def test_full_set_required(self):
        assert not is_moore({0b00, 0b01}, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            is_moore({0b100}, 2)

    def test_ground_set_guard(self):
        """Refused before the fold builds the full set."""
        n = GROUND_SET_GUARD + 1
        with pytest.raises(GuardError):
            is_moore({(1 << n) - 1}, n)

    @pytest.mark.parametrize("n, members, message", [
        (0, (0,), "nonempty"),
        (2, (0b11, 0b01), "ascending"),
    ], ids=["empty-ground-set", "descending"])
    def test_family_refused(self, n, members, message):
        with pytest.raises(ValueError, match=message):
            MooreFamily(n, members)

    def test_fold_work_budget(self, monkeypatch):
        """The power set of 6 points folds only its 6 coatoms, which visit 1,
        2, ..., 32 members: 63 units of work, accepted at that budget and
        refused one unit below it."""
        power = set(range(1 << 6))
        monkeypatch.setattr(moore, "FOLD_WORK_GUARD", 63)
        assert is_moore(power, 6)
        monkeypatch.setattr(moore, "FOLD_WORK_GUARD", 62)
        with pytest.raises(GuardError):
            is_moore(power, 6)


class TestGenerate:
    def test_empty_input_gives_least_family(self):
        assert moore_generate(set(), 2).members == (0b11,)

    def test_saturation(self):
        fam = moore_generate({0b01, 0b10}, 2)
        assert fam.members == (0b00, 0b01, 0b10, 0b11)

    def test_idempotent_on_families(self):
        for fam in enumerate_moore(3):
            assert moore_generate(set(fam.members), 3) == fam

    def test_ground_set_guard_before_the_fold(self):
        """12 coatoms of 20 000 points close to 4 096 members of 20 000 bits,
        over 10 MB; the guard refuses them before the first fold."""
        n = 20000
        full = (1 << n) - 1
        coatoms = {full ^ 1 << i for i in range(12)}
        tracemalloc.start()
        try:
            with pytest.raises(GuardError):
                moore_generate(coatoms, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_pairwise_closure_on_every_input(self, n):
        """Every set of subsets: 4, 16 and 256 inputs for n = 1, 2, 3."""
        subsets = range(1 << n)
        for choice in range(1 << (1 << n)):
            chosen = [s for s in subsets if choice >> s & 1]
            closed = pairwise_closure(chosen, n)
            assert moore_generate(chosen, n).members == closed
            assert is_moore(chosen, n) == (tuple(sorted(chosen)) == closed)


class TestClosure:
    def test_examples(self):
        fam = MooreFamily(2, (0b01, 0b11))
        assert 0b01 in fam and 0b11 in fam and 0b10 not in fam
        assert -1 not in fam and 0b100 not in fam  # out of range: not a member
        assert closure(fam, 0b00) == 0b01
        assert closure(fam, 0b10) == 0b11
        full = powerset_family(2)
        for x in range(4):
            assert closure(full, x) == x
        for mask in (-1, 0b100):
            with pytest.raises(ValueError, match="out of range"):
                closure(fam, mask)

    def test_closure_axioms_exhaustive_small(self):
        for n in (1, 2, 3):
            for fam in enumerate_moore(n):
                for x in range(1 << n):
                    cx = closure(fam, x)
                    assert x & cx == x                      # extensive
                    assert closure(fam, cx) == cx           # idempotent
                    assert cx in set(fam.members)
                    for y in range(1 << n):
                        if x & y == x:                      # x subset y
                            assert cx & closure(fam, y) == cx  # monotone

    def test_closure_axioms_sampled_n4(self):
        rng = random.Random(5)
        families = list(enumerate_moore(4))
        for fam in rng.sample(families, 40):
            for _ in range(20):
                x, y = rng.randrange(16), rng.randrange(16)
                cx = closure(fam, x)
                assert x & cx == x and closure(fam, cx) == cx
                cxy = closure(fam, x | y)
                assert cx & cxy == cx


class TestMeetJoin:
    def test_examples(self):
        fam = MooreFamily(2, (0b01, 0b11))
        assert family_meet(powerset_family(2), fam) == fam
        least = MooreFamily(2, (0b11,))
        assert family_join(least, fam) == fam
        assert family_join(
            MooreFamily(2, (0b01, 0b11)), MooreFamily(2, (0b10, 0b11))
        ).members == (0b00, 0b01, 0b10, 0b11)
        assert family_join(fam) == fam and family_meet(fam) == fam
        for op in (family_join, family_meet):
            with pytest.raises(ValueError, match="ground sets differ"):
                op(fam, fam, MooreFamily(3, (0b111,)))

    def test_n_ary_equals_pairwise_fold_n3(self):
        """Seeded triples: one n-ary call equals the pairwise fold, in every
        order of the arguments."""
        rng = random.Random(12)
        families = list(enumerate_moore(3))
        for _ in range(300):
            triple = rng.sample(families, 3)
            for op in (family_join, family_meet):
                expected = functools.reduce(op, triple)
                for order in itertools.permutations(triple):
                    assert op(*order) == expected

    def test_lattice_axioms_all_pairs_n3(self):
        families = list(enumerate_moore(3))
        for f1, f2 in itertools.product(families, repeat=2):
            meet, join = family_meet(f1, f2), family_join(f1, f2)
            assert family_meet(f1, f1) == f1 and family_join(f1, f1) == f1
            assert family_join(f1, meet) == f1      # absorption
            assert family_meet(f1, join) == f1
            assert meet == family_meet(f2, f1)
            assert join == family_join(f2, f1)


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts(self, n):
        assert count_moore(n) == KNOWN_COUNTS[n]

    def test_n1_families(self):
        fams = [f.members for f in enumerate_moore(1)]
        assert fams == [(0b0, 0b1), (0b1,)]  # full set forced, empty optional

    def test_all_valid_distinct_canonical(self):
        fams = list(enumerate_moore(3))
        assert len(fams) == 61
        assert len({f.members for f in fams}) == 61
        assert [f.members for f in fams] == sorted(f.members for f in fams)
        for f in fams:
            assert is_moore(f.members, 3)

    def test_guard(self):
        with pytest.raises(GuardError):
            count_moore(6)
        with pytest.raises(GuardError):
            next(enumerate_moore(6))
        with pytest.raises(GuardError):
            enumerate_moore(6)  # at the call, not at the first next
        with pytest.raises(ValueError):
            count_moore(0)

    def test_count_matches_stream_length(self):
        for n in (1, 2, 3, 4):
            assert count_moore(n) == sum(1 for _ in enumerate_moore(n))

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: count_moore(4), id="count_moore"),
        pytest.param(lambda: collections.deque(enumerate_moore(4), maxlen=0),
                     id="enumerate_moore"),
        pytest.param(lambda: collections.deque(enumerate_record_texts(4), maxlen=0),
                     id="enumerate_record_texts"),
        pytest.param(lambda: next(enumerate_record_texts(5)), id="first_record_text"),
        pytest.param(lambda: moore_generate({0b0011, 0b0110, 0b1100}, 4),
                     id="moore_generate"),
        pytest.param(lambda: family_join(*_some_families(2)), id="family_join"),
        pytest.param(lambda: family_meet(*_some_families(2)), id="family_meet"),
        pytest.param(lambda: hasse(_some_families(16), _family_leq), id="hasse"),
        pytest.param(lambda: poset_iso(_some_families(16), _family_leq,
                                       _some_families(16)[::-1], _family_leq),
                     id="poset_iso-isomorphic"),
        pytest.param(lambda: poset_iso(*_matrix_order(_EQUAL_PROFILES[0]),
                                       *_matrix_order(_EQUAL_PROFILES[1])),
                     id="poset_iso-equal-profiles"),
    ])
    def test_count_leaves_no_garbage_cycle(self, call):
        """A cycle would keep a call's memo or search state alive until a
        collection."""
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_count_keeps_nothing_between_calls(self, monkeypatch):
        """Each call's memo goes with it, so a repeated count is computed
        again, not remembered: the second call builds as much as the first.
        And the count never reads the table it is checked against."""
        monkeypatch.setattr(moore, "KNOWN_COUNTS", None)
        tracemalloc.start()
        try:
            built = []
            for _ in range(2):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert count_moore(4) == 2480
                after, peak = tracemalloc.get_traced_memory()
                assert abs(after - before) <= 16 * 1024
                built.append(peak - before)
            assert built[1] >= 0.9 * built[0] > 16 * 1024
        finally:
            tracemalloc.stop()

    def test_memo_key_is_sound(self):
        """Every state the n = 4 search reaches, in search order, counted
        through one memo, pair-meets dict and down-set list shared by all of
        them, against a memo-free count of its subtree: a key that confuses
        two states with different subtrees returns the first one's count for
        the second."""
        full = 15
        memo, meets, down = {}, {}, moore._down_sets(full + 1)
        lanes = moore._lanes(down)
        seen = 0
        for present, cands in search_states(0, list(range(full))):
            mask = sum(1 << c for c in cands)
            assert (moore._completions(memo, meets, down, lanes, full + 1, present,
                                       mask)
                    == sum(1 for _ in search_states(present, cands)))
            seen += 1
        assert seen == KNOWN_COUNTS[4]

    def test_memo_key_is_sound_sampled_n5(self):
        """Seeded random descents through the n = 5 search, each stopped at
        the first state whose subtree holds at most 10^4 families, counted
        in turn through one shared memo, pair-meets dict and down-set list,
        against a memo-free count of the subtree.  A descent picks a child
        with weight 1.5 ** (its candidates), so that it reaches large
        subtrees deep in the search, not only the small ones near the root."""
        limit = 10 ** 4
        full = 31
        rng = random.Random(26)
        memo, meets, down = {}, {}, moore._down_sets(full + 1)
        lanes = moore._lanes(down)
        sizes = []
        for _ in range(20):
            present, cands = 0, list(range(full))
            size = limit + 1
            while size > limit:
                children = list(search_children(present, cands))
                weights = [1.5 ** len(rest) for _, _, rest in children]
                _, present, cands = rng.choices(children, weights)[0]
                size = sum(1 for _ in itertools.islice(search_states(present, cands),
                                                       limit + 1))
            mask = sum(1 << c for c in cands)
            assert (moore._completions(memo, meets, down, lanes, full + 1, present,
                                       mask) == size)
            sizes.append(size)
        assert len(set(sizes)) >= 10 and max(sizes) > limit // 2

    def test_block_memo_is_sound(self):
        """``_block`` on every child of at most ``BLOCK_CANDIDATES``
        candidates of every state the n = 4 search reaches, in search order,
        through one memo shared by all of them.  Each block must be a
        memo-free listing of the child's subtree: the members each family at
        and below it adds, plus the full set, in canonical order.  The search
        calls ``_block`` on the 1 010 children with candidates; the other
        1 367 close at once, as ``(full,)``.  A key that confuses two states
        with different subtrees hands out the first one's block for the
        second."""
        full = 15
        width = full + 1
        items = [(c,) for c in range(full)]
        memo, meets, down = {}, {}, moore._down_sets(width)
        lanes = moore._lanes(down)
        seen = collections.Counter()
        for present, cands in search_states(0, list(range(full))):
            for _, grown, rest in search_children(present, cands):
                if len(rest) > moore.BLOCK_CANDIDATES:
                    continue
                seen["child"] += 1
                expected = tuple(sorted((*s, full) for s in search_suffixes(grown, rest)))
                if rest:
                    assert moore._block(memo, meets, down, lanes, width, items, (full,),
                                        grown, sum(1 << d for d in rest)) == expected
                    seen["block"] += 1
                else:
                    assert expected == ((full,),)
        assert seen == {"child": 2377, "block": 1010}
        assert len(memo) < seen["block"]
        assert all(value.__class__ is tuple
                   and all(s.__class__ is tuple and s[-1] == full for s in value)
                   for value in memo.values())

    def test_state_memo_is_sound(self, monkeypatch):
        """The n = 4 search, run through one explicit stack, against a
        memo-free listing.  It descends into exactly the 102 states of more
        than ``BLOCK_CANDIDATES`` candidates that the take branch reaches
        below the root, in search order, and keeps none of them; each popped
        state of at most ``BLOCK_CANDIDATES`` candidates goes out as its
        block, an entry of the memo when it has candidates.  A key that
        confuses two states with different subtrees hands out the first
        one's block for the second, and a descended state kept in the memo
        would show up here."""
        full = 15
        width = full + 1
        memos, descents = watch_stream(monkeypatch)
        items = [(c,) for c in range(full)]
        handed = list(moore._closed_blocks(full, (), items, (full,)))
        monkeypatch.undo()
        listed = [prefix + s for prefix, block in handed for s in block]
        assert listed == sorted((*s, full) for s in search_suffixes(0, list(range(full))))
        expected = [(present, sum(1 << d for d in cands))
                    for present, cands in search_states(0, list(range(full)))
                    if len(cands) > moore.BLOCK_CANDIDATES][1:]
        assert descents == expected and len(descents) == 102
        memo = memos[0]
        lanes = moore._lanes(moore._down_sets(width))
        for present, cands in descents:
            assert moore._state_key({}, lanes, width, present, cands) not in memo
        kept = {id(value) for value in memo.values()}
        popped = [cands for _, cands in stream_states(0, list(range(full)))
                  if len(cands) <= moore.BLOCK_CANDIDATES]
        assert len(handed) == len(popped)
        blocks = [block for _, block in handed if block != ((full,),)]
        assert len(blocks) == sum(1 for cands in popped if cands)
        assert all(id(block) in kept for block in blocks)
        for key, value in memo.items():
            assert 1 <= (key >> width).bit_count() <= moore.BLOCK_CANDIDATES
            assert value.__class__ is tuple
            assert all(s.__class__ is tuple and s[-1] == full for s in value)

    def test_blocks_match_counter(self, monkeypatch):
        """Stream and counter agree state by state: for n <= 4, every block
        the stream asks ``_block`` for, at the states it pops and at every
        take and skip state below them, has as many suffixes as
        ``_completions`` counts there with a fresh memo, and lists the
        memo-free suffixes.  The skip states are reached only here, so this
        guards the memo key where only the skip branch leads."""
        block = moore._block
        states = []

        def watched(memo, meets, down, lanes, width, items, last, present, cands):
            got = block(memo, meets, down, lanes, width, items, last, present, cands)
            states.append((down, lanes, width, present, cands, got))
            return got

        monkeypatch.setattr(moore, "_block", watched)
        for n in range(1, 5):
            states.clear()
            collections.deque(enumerate_moore(n), maxlen=0)
            full = (1 << n) - 1
            children = {(present, sum(1 << d for d in cands))
                        for present, cands in search_states(0, list(range(full)))}
            skipped = 0
            for down, lanes, width, present, cands, got in states:
                assert len(got) == moore._completions({}, {}, down, lanes, width,
                                                      present, cands)
                assert list(got) == sorted((*s, full) for s in search_suffixes(
                    present, moore.indices_of(cands)))
                skipped += (present, cands) not in children
            assert skipped > 0

    def test_memo_census(self, monkeypatch):
        """``enumerate_record_texts(4)`` keeps one memo, seen through every
        ``_block`` call, of 141 blocks and nothing else, take and skip
        states alike, writes 257 chunks, and descends 102 times into a take
        state of more than ``BLOCK_CANDIDATES`` candidates: a search change
        that stops reusing states fails here."""
        assert stream_census(monkeypatch, 4) == (141, 141, 0, 257, 102)

    def test_memo_census_n5(self, monkeypatch):
        """``enumerate_record_texts(5)``: one memo of 2 234 blocks, 139 641
        chunks and 54 410 descents, each state of more than
        ``BLOCK_CANDIDATES`` candidates walked again on every visit."""
        assert stream_census(monkeypatch, 5) == (2234, 2234, 0, 139641, 54410)

    def test_count_memo_census(self, monkeypatch):
        """``count_moore(4)`` keeps one memo, pair-meets dict and down-set
        list, seen through every ``_completions`` call, of 258 counts and 129
        pair-meet masks, in 517 calls: a counter change that stops sharing
        states fails here."""
        completions = moore._completions
        seen = []

        def watched(*args):
            seen.append(args[:3])
            return completions(*args)

        monkeypatch.setattr(moore, "_completions", watched)
        assert count_moore(4) == 2480
        memo, meets, down = seen[0]
        assert all(a is memo and b is meets and c is down for a, b, c in seen)
        assert (len(memo), len(meets), len(seen)) == (258, 129, 517)

    def test_count_memo_census_n5(self, monkeypatch):
        """``count_moore(5)`` keeps one memo, pair-meets dict and down-set
        list, seen through every ``_completions`` call, of 18 675 counts and
        7 411 pair-meet masks, in 37 351 calls: a counter change that stops
        sharing states, or that keeps a pair-meet mask for every suffix of
        a candidate set, fails here."""
        completions = moore._completions
        seen = []

        def watched(*args):
            seen.append(args[:3])
            return completions(*args)

        monkeypatch.setattr(moore, "_completions", watched)
        assert count_moore(5) == KNOWN_COUNTS[5]
        memo, meets, down = seen[0]
        assert all(a is memo and b is meets and c is down for a, b, c in seen)
        assert (len(memo), len(meets), len(seen)) == (18675, 7411, 37351)

    @pytest.mark.parametrize("source", ["count_moore_4", "random_n5"])
    def test_pair_meets_match_definition(self, monkeypatch, source):
        """``_pair_meets`` against ``pair_meets_by_definition``, on every
        candidate mask that ``count_moore(4)`` keys, in the order it keys
        them, or on 2 000 seeded random masks over the 31 proper subsets at
        n = 5.  Each mask is built once with a fresh ``meets`` dict and once
        with one dict shared by all of them, which then holds the mask of
        each one without its least candidate, and of every suffix built on
        the way; each stored mask is checked too."""
        if source == "count_moore_4":
            state_key = moore._state_key
            masks = []

            def watched(meets, lanes, width, present, cands):
                masks.append(cands)
                return state_key(meets, lanes, width, present, cands)

            monkeypatch.setattr(moore, "_state_key", watched)
            assert count_moore(4) == KNOWN_COUNTS[4]
            monkeypatch.undo()
            assert len(set(masks)) == 129
        else:
            rng = random.Random(29)
            masks = [sum(1 << d for d in rng.sample(range(31), rng.randint(0, 31)))
                     for _ in range(2000)]
        lanes = moore._lanes(moore._down_sets(32))
        shared = {}
        for mask in masks:
            expected = pair_meets_by_definition(mask)
            assert moore._pair_meets({}, lanes, mask) == expected
            assert moore._pair_meets(shared, lanes, mask) == expected
        for mask in masks:
            rest = mask & (mask - 1)
            assert rest & (rest - 1) == 0 or rest in shared
        for mask, relevant in shared.items():
            assert relevant == pair_meets_by_definition(mask)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pair_meets_fold_is_the_image(self, n):
        """The fold of ``_pair_meets`` maps the candidates after c onto the
        bitmask of {c & d : d in rest}, against that set built one d at a
        time.  ``meets`` holds 0 for rest, so the image is all that is
        returned.  For n <= 4, every c and every rest of subsets after c;
        for n = 5 and n = 6 (width 64), 2 000 seeded pairs each, rest of a
        random size."""
        width = 1 << n
        lanes = moore._lanes(moore._down_sets(width))
        if n <= 4:
            pairs = [(c, rest << c + 1) for c in range(width)
                     for rest in range(1 << width - 1 - c)]
        else:
            rng = random.Random(31 + n)
            pairs = []
            for _ in range(2000):
                c = rng.randrange(width)
                later = range(c + 1, width)
                rest = sum(1 << d for d in rng.sample(later, rng.randint(0, len(later))))
                pairs.append((c, rest))
        for c, rest in pairs:
            image = 0
            for d in range(c + 1, width):
                if rest >> d & 1:
                    image |= 1 << (c & d)
            assert moore._pair_meets({rest: 0}, lanes, 1 << c | rest) == image
        assert len(pairs) == (2 ** width - 1 if n <= 4 else 2000)

    def test_take_branch_keeps_the_search_children(self, monkeypatch):
        """``_child_candidates``, the one child rule, keeps the candidates of
        every child of every state of the n = 4 search that
        ``search_children`` lists.  The counter takes c through it: the
        child that adds c is the branch that takes c at the same prefix
        with the candidates from c on, so each child, with c not its state's
        last candidate, is also checked as the second call that
        ``_completions`` makes there.  And ``_down_sets(64)`` lists the
        subsets of each x."""
        full = 15
        width = full + 1
        completions = moore._completions
        calls = []

        def stub(memo, meets, down, lanes, width, present, cands):
            calls.append((present, cands))
            return 0

        monkeypatch.setattr(moore, "_completions", stub)
        meets, down = {}, moore._down_sets(width)
        lanes = moore._lanes(down)
        seen = collections.Counter()
        for present, cands in search_states(0, list(range(full))):
            for i, (c, grown, rest) in enumerate(search_children(present, cands)):
                later = sum(1 << d for d in cands[i + 1:])
                kept = sum(1 << d for d in rest)
                assert moore._child_candidates(down, width, present, c, later) == kept
                seen["child"] += 1
                if not later:
                    continue
                calls.clear()
                completions({}, meets, down, lanes, width, present, later | 1 << c)
                assert calls == [(present, later), (grown, kept)]
                seen["take"] += 1
        assert seen == {"child": 2479, "take": 1366}
        assert moore._down_sets(64) == [
            sum(1 << s for s in range(64) if s & x == s) for x in range(64)]

    def test_first_chunk_builds_one_block(self, monkeypatch):
        """Blocks are built as the search walks, not ahead of it: the first
        chunk of ``enumerate_record_texts(5)`` asks for one block outside
        ``_block`` itself."""
        block = moore._block
        depth, calls = [0], [0]

        def counted(*args):
            calls[0] += depth[0] == 0
            depth[0] += 1
            try:
                return block(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(moore, "_block", counted)
        next(enumerate_record_texts(5))
        assert calls[0] == 1

    def test_record_texts_keep_nothing_between_calls(self):
        """The block memo goes with each stream: a second pass builds as much
        as the first, and neither leaves anything behind."""
        # Warm-up: one full pass, so the first measured pass does not refill
        # the interpreter's free lists, which would count against the second.
        collections.deque(enumerate_record_texts(4), maxlen=0)
        tracemalloc.start()
        try:
            built = []
            for _ in range(2):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                collections.deque(enumerate_record_texts(4), maxlen=0)
                after, peak = tracemalloc.get_traced_memory()
                assert abs(after - before) <= 16 * 1024
                built.append(peak - before)
            assert built[1] >= 0.9 * built[0] > 16 * 1024
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stream_matches_brute_force(self, n):
        """Every intersection-closed subset of the proper subsets, plus the
        full set, sorted: 2^15 candidate subsets at n = 4."""
        full = (1 << n) - 1
        proper = range(full)
        expected = []
        for choice in range(1 << full):
            chosen = [s for s in proper if choice >> s & 1]
            present = set(chosen)
            if all(a & b in present for a, b in itertools.combinations(chosen, 2)):
                expected.append(tuple(chosen) + (full,))
        expected.sort()
        assert [f.members for f in enumerate_moore(n)] == expected

    def test_stream_families_pass_the_public_checks(self):
        """The stream skips MooreFamily's validation; the public, validating
        constructor must accept and reproduce every family it yields."""
        def check(fam):
            assert is_moore(fam.members, fam.n)
            assert fam == MooreFamily(fam.n, fam.members)
            assert type(fam.members) is tuple

        for n in (1, 2, 3, 4):
            for fam in enumerate_moore(n):
                check(fam)
        sampled = set(random.Random(3).sample(range(KNOWN_COUNTS[5]), 2000))
        seen = 0
        for i, fam in enumerate(enumerate_moore(5)):
            if i in sampled:
                check(fam)
                seen += 1
        assert seen == 2000


class TestUpfilter:
    def test_examples(self):
        upfilter = MooreFamily(2, (0b01, 0b11))
        assert is_principal_upfilter(upfilter) is True
        assert upfilter.members[0] == 0b01
        assert is_principal_upfilter(powerset_family(2)) is True
        assert powerset_family(2).members[0] == 0b00
        assert is_principal_upfilter(MooreFamily(2, (0b00, 0b11))) is False

    def test_census_small(self):
        for n in (1, 2, 3):
            census = sum(1 for f in enumerate_moore(n) if is_principal_upfilter(f))
            assert census == 2 ** n


class TestMemberSet:
    def test_equals_the_members(self):
        for fam in (powerset_family(3), MooreFamily(2, (0b00, 0b11)),
                    moore_generate({0b011, 0b110}, 3)):
            assert fam.member_set == frozenset(fam.members)
        for fam in enumerate_moore(3):  # built by ``_trusted``
            assert fam.member_set == frozenset(fam.members)
            assert fam.member_set is fam.member_set  # built once

    def test_not_part_of_equality_or_hash(self):
        built = MooreFamily(3, (0b001, 0b011, 0b111))
        fresh = MooreFamily(3, (0b001, 0b011, 0b111))
        assert built.member_set == {0b001, 0b011, 0b111}
        assert built == fresh and hash(built) == hash(fresh)
        assert family_to_record(built) == family_to_record(fresh)
        assert [f.name for f in dataclasses.fields(MooreFamily)] == ["n", "members"]


class TestBounds:
    def test_values(self):
        assert binom_lower_bound(2) == 4
        assert binom_lower_bound(4) == 64
        assert binom_lower_bound(5) == 1024
        for n in (0, 8):  # untabulated
            with pytest.raises(ValueError):
                binom_lower_bound(n)

    def test_sandwich(self):
        for n in (1, 2, 3, 4):
            c = count_moore(n)
            assert binom_lower_bound(n) <= c <= 2 ** (2 ** n)


class TestPosets:
    def test_hasse_chain(self):
        elems = [1, 2, 4, 8]
        assert hasse(elems, lambda a, b: a <= b) == [(0, 1), (1, 2), (2, 3)]

    def test_hasse_skips_transitive_edges(self):
        # divisibility on {1,2,3,6}: 1 under 2 and 3; 2,3 under 6; no 1->6
        elems = [1, 2, 3, 6]
        assert hasse(elems, lambda a, b: b % a == 0) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_hasse_matches_definition_on_random_preorders(self):
        """Total preorders with repeated keys, divisibility on integers with
        repeats, and inclusion on subsets with repeats: tied elements are
        never strictly below each other."""
        rng = random.Random(20)
        for _ in range(60):
            k = rng.randint(0, 24)
            keys = [rng.randint(0, 6) for _ in range(k)]
            numbers = [rng.randint(1, 36) for _ in range(k)]
            masks = [rng.randrange(16) for _ in range(k)]
            for elems, leq in ((list(range(k)), lambda a, b: keys[a] <= keys[b]),
                               (numbers, lambda a, b: b % a == 0),
                               (masks, lambda a, b: a & b == a)):
                assert hasse(elems, leq) == hasse_by_definition(elems, leq)

    def test_hasse_calls_leq_once_per_ordered_pair(self):
        elems = [1, 2, 3, 4, 6, 12, 5, 12]
        calls = []

        def leq(a, b):
            calls.append((a, b))
            return b % a == 0

        hasse(elems, leq)
        # k(k - 1) calls, each ordered pair of positions once
        assert sorted(calls) == sorted(itertools.permutations(elems, 2))

    def test_iso_examples(self):
        chain = [0, 1]
        antichain = ["a", "b"]
        assert not poset_iso(chain, lambda a, b: a <= b,
                             antichain, lambda a, b: a == b)
        assert poset_iso(chain, lambda a, b: a <= b, chain, lambda a, b: a <= b)

    def test_anti_orientation(self):
        chain = [0, 1, 2]
        # an anti-isomorphism is an isomorphism onto the reversed order
        assert poset_iso(chain, lambda a, b: a <= b, chain, lambda a, b: b <= a)

    def test_moore_families_match_cube_minus_coatom(self):
        fams = list(enumerate_moore(2))
        target = [frozenset(s) for s in _subsets({1, 2, 3}) if set(s) != {1}]
        assert poset_iso(
            fams, lambda a, b: set(a.members) >= set(b.members),
            target, lambda a, b: a <= b,
        )

    def test_iso_matches_permutation_oracle(self):
        """Posets and preorders with ties on k <= 6 elements, each against a
        relabelled copy of itself (isomorphic) and against an independent
        draw of the same size."""
        rng = random.Random(21)
        outcomes = collections.Counter()
        for _ in range(300):
            k = rng.randint(0, 6)
            blocks = k if rng.random() < 0.5 else rng.randint(1, max(k, 1))
            first = random_preorder(rng, k, blocks)
            for rel in (_relabelled(rng, first), random_preorder(rng, k, blocks)):
                expected = iso_by_permutations(*_matrix_order(first), *_matrix_order(rel))
                assert poset_iso(*_matrix_order(first), *_matrix_order(rel)) == expected
                outcomes[expected] += 1
        assert outcomes[True] > 300 and outcomes[False] > 30

    def test_iso_backtracks_past_equal_profiles(self):
        """Two 6-element posets whose elements have the same up-set and
        down-set sizes but which are not isomorphic: the profiles let every
        relabelling through, and only the bijection search refuses it."""
        first, second = _EQUAL_PROFILES
        profiles = [sorted(zip(map(sum, rel), map(sum, zip(*rel))))
                    for rel in (first, second)]
        assert profiles[0] == profiles[1]
        rng = random.Random(21)
        for _ in range(20):
            moved = _relabelled(rng, second)
            assert not iso_by_permutations(*_matrix_order(first), *_matrix_order(moved))
            assert not poset_iso(*_matrix_order(first), *_matrix_order(moved))
            assert poset_iso(*_matrix_order(second), *_matrix_order(moved))

    def test_iso_calls_leq_once_per_ordered_pair(self):
        """k(k - 1) calls to each order, each ordered pair of positions once,
        and none when the sizes differ."""
        elems = [1, 2, 3, 4, 6, 12, 5, 12]
        calls = {1: [], 2: []}

        def order(side):
            def leq(a, b):
                calls[side].append((a, b))
                return b % a == 0
            return leq

        assert poset_iso(elems, order(1), elems[::-1], order(2))
        for side in (1, 2):
            assert sorted(calls[side]) == sorted(itertools.permutations(elems, 2))
        calls = {1: [], 2: []}
        assert not poset_iso(elems, order(1), elems[1:], order(2))
        assert calls == {1: [], 2: []}

    def test_guard(self):
        big = list(range(201))
        with pytest.raises(GuardError):
            poset_iso(big, lambda a, b: a <= b, big, lambda a, b: a <= b)


def _order_of(k, strict):
    """The 0/1 matrix of the order on range(k) with the given pairs a < b,
    which are already transitive."""
    return [[a == b or (a, b) in strict for b in range(k)] for a in range(k)]


#: Two 6-element posets with the same up-set and down-set size profiles that
#: are not isomorphic.
_EQUAL_PROFILES = (
    _order_of(6, [(0, 1), (0, 2), (3, 1), (4, 1), (4, 3), (4, 5)]),
    _order_of(6, [(0, 3), (0, 4), (0, 5), (1, 5), (2, 1), (2, 5)]))


def _some_families(k):
    """The first k families on 3 points, in canonical order."""
    return list(itertools.islice(enumerate_moore(3), k))


def _family_leq(a, b):
    return a.member_set >= b.member_set


def _relabelled(rng, rel):
    """The same order on a random relabelling of its elements."""
    k = len(rel)
    label = rng.sample(range(k), k)
    moved = [[False] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            moved[label[a]][label[b]] = rel[a][b]
    return moved


def _matrix_order(rel):
    """Elements and ``leq`` of the order that a 0/1 matrix holds."""
    return list(range(len(rel))), lambda a, b: rel[a][b]


def _subsets(ground):
    items = sorted(ground)
    for mask in range(1 << len(items)):
        yield {items[i] for i in range(len(items)) if mask >> i & 1}


class TestSerialization:
    def test_roundtrip(self):
        for fam in enumerate_moore(3):
            assert family_from_record(family_to_record(fam)) == fam

    def test_huge_ground_set_refused(self):
        for n in (GROUND_SET_GUARD + 1, 10 ** 11, 2 ** 70):
            with pytest.raises(GuardError):
                family_from_record({"n": n, "members": [[0]]})
        n = GROUND_SET_GUARD
        assert family_from_record({"n": n, "members": [list(range(n))]}).n == n

    def test_record_shape(self):
        fam = MooreFamily(2, (0b01, 0b11))
        assert family_to_record(fam) == {"n": 2, "members": [[0], [0, 1]]}

    def test_record_text_is_compact_json(self):
        families = [f for n in (1, 2, 3) for f in enumerate_moore(n)]
        families.append(MooreFamily(40, (0, 1 << 39, (1 << 40) - 1)))
        for fam in families:
            assert family_record_text(fam) == json.dumps(
                family_to_record(fam), separators=(",", ":"))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_record_texts_match_the_renderer(self, n):
        texts = list(enumerate_record_texts(n))
        lines = [family_record_text(f) + "\n" for f in enumerate_moore(n)]
        assert "".join(texts) == "".join(lines)
        assert all(text.endswith("\n") for text in texts)
        assert [line for text in texts
                for line in text.splitlines(keepends=True)] == lines

    def test_record_texts_are_lazy(self):
        texts = enumerate_record_texts(5)
        assert isinstance(texts, types.GeneratorType)
        assert next(texts).startswith(
            family_record_text(next(enumerate_moore(5))) + "\n")

    def test_record_texts_guard(self):
        """Refused at the call, so ``enumerate --out`` can refuse before it
        opens its file."""
        with pytest.raises(GuardError):
            enumerate_record_texts(6)

    def test_rendering_keeps_nothing(self):
        """Rendering the largest printed record, 2^16 members, twice leaves
        traced memory where it started: no member text outlives a call."""
        family = d_of_overring(tuple(range(16)), range(16)).family
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(2):
                family_record_text(family)
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - before <= 64 * 1024
        finally:
            tracemalloc.stop()

    def test_mask_helpers(self):
        assert mask_of([0, 2], 3) == 0b101
        assert indices_of(0b101) == [0, 2]
        with pytest.raises(ValueError):
            mask_of([3], 3)

    def test_dot_output(self):
        dot = hasse_dot(["a", "b"], [(0, 1)])
        assert dot.startswith("digraph hasse {")
        assert "n0 -> n1;" in dot
        assert dot.endswith("}\n")
