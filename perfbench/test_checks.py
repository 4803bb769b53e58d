"""Tests that the benchmark's checkers catch wrong output.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import algebra  # noqa: E402
import batch  # noqa: E402
import run  # noqa: E402

SMALL_N = 3


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


@pytest.fixture(scope="module")
def small_stream(lib, tmp_path_factory):
    """``dedstar enumerate 3`` as lines of bytes, with its digest."""
    out = tmp_path_factory.mktemp("stream") / "enumerate3.out"
    assert batch.run_job(lib.cli, [["enumerate", str(SMALL_N)]], str(out)).codes == [0]
    lines = out.read_bytes().splitlines(keepends=True)
    return lines, hashlib.sha256(b"".join(lines)).hexdigest()


def stream_failures(lines, digest):
    return batch.check_stream(lines, seed=0, n=SMALL_N,
                              expected_records=batch.PUBLISHED_COUNTS[SMALL_N],
                              expected_sha256=digest, sample=20)


def test_stream_checker_passes_the_real_stream(small_stream):
    assert stream_failures(*small_stream) == 0


def test_stream_checker_catches_a_dropped_line(small_stream):
    lines, digest = small_stream
    assert stream_failures(lines[:10] + lines[11:], digest) > 0


def test_stream_checker_catches_two_swapped_lines(small_stream):
    lines, digest = small_stream
    swapped = list(lines)
    swapped[20], swapped[21] = swapped[21], swapped[20]
    assert stream_failures(swapped, digest) > 0


def test_stream_checker_catches_a_duplicate_line(small_stream):
    lines, digest = small_stream
    assert stream_failures(lines[:31] + [lines[30]] + lines[32:], digest) > 0


def test_stream_checker_catches_a_family_not_closed_under_intersection(small_stream):
    lines, digest = small_stream
    bad = json.dumps({"n": SMALL_N, "members": [[0], [1], [0, 1, 2]]},
                     separators=(",", ":")).encode() + b"\n"
    assert not batch.record_is_valid(bad, SMALL_N)
    assert stream_failures(lines[:-1] + [bad], digest) > 0


def test_census_checker_catches_a_wrong_count():
    right = [str(batch.PUBLISHED_COUNTS[n]) for n in batch.CENSUS_ORDER]
    codes = [0] * len(right)
    assert batch.check_census(right, codes) == 0
    wrong = list(right)
    wrong[0] = str(batch.PUBLISHED_COUNTS[5] - 1)
    assert batch.check_census(wrong, codes) == 1
    assert batch.check_census(right[:-1], codes) == 1
    assert batch.check_census(right, [0, 0, 2, 0, 0]) == 1


def test_census_sink_receives_the_rows(lib, tmp_path):
    out = tmp_path / "census.out"
    argvs = [["count", str(n)] for n in (3, 2, 1)]
    job = batch.run_job(lib.cli, argvs, str(out))
    assert job.codes == [0, 0, 0]
    assert out.read_text().split() == ["61", "7", "2"]
    assert job.start < job.first_record <= job.end


def _small_pool(lib, seed=5, size=600):
    pool = algebra.build_pool(lib, seed)
    kinds = {}
    for query in pool:  # keep every kind, with the heavy poset ones few
        kinds.setdefault(query.kind, []).append(query)
    return [q for qs in kinds.values() for q in qs[: max(2, size // len(kinds))]]


def test_algebra_answers_pass_their_checks(lib):
    state = algebra.LoopState(_small_pool(lib))
    state.execute()
    state.execute()
    assert state.failures() == 0
    assert {q.kind for q in state.pool} >= {
        "closure", "contains", "apply", "is_closed", "star_le", "classify",
        "vec_mul", "vec_colon", "vec_inf", "vec_le", "vector_of_module",
        "module_member", "colon_oracle", "moore_generate", "star_meet",
        "star_join", "v_apply", "d_apply", "hasse", "poset_iso"}


@pytest.mark.parametrize("kind", ["apply", "closure", "star_meet", "v_apply",
                                  "colon_oracle", "vec_colon", "hasse", "poset_iso"])
def test_algebra_checker_catches_a_corrupted_answer(lib, kind):
    pool = _small_pool(lib)
    state = algebra.LoopState(pool)
    state.execute()
    index = next(i for i, q in enumerate(pool) if q.kind == kind)
    if kind == "poset_iso":
        wrong = not state.answers[index]
    else:  # another query's answer of the same kind
        wrong = next(a for q, a in zip(pool, state.answers)
                     if q.kind == kind and a != state.answers[index])
    state.answers[index] = wrong
    assert state.failures() == 1


def test_algebra_checker_catches_an_answer_that_changes_between_passes(lib):
    pool = _small_pool(lib)
    state = algebra.LoopState(pool)
    state.execute()
    index = next(i for i, q in enumerate(pool) if q.kind == "closure")
    first = state.answers[index]
    pool[index].call = lambda: first ^ 1
    state.execute()
    assert state.failures() == 1


def test_algebra_checker_counts_a_raising_query(lib):
    pool = _small_pool(lib)
    index = next(i for i, q in enumerate(pool) if q.kind == "star_le")

    def boom():
        raise RuntimeError("broken")
    pool[index].call = boom
    state = algebra.LoopState(pool)
    state.execute()
    assert state.failures() == 1


def test_pool_is_seeded(lib):
    def answers(seed):
        state = algebra.LoopState(_small_pool(lib, seed))
        state.execute()
        return [(q.kind, repr(a)) for q, a in zip(state.pool, state.answers)]
    assert answers(3) == answers(3)
    assert answers(3) != answers(4)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])


def test_result_line_is_the_last_line_of_stdout(capsys):
    result = run.Result()
    result.attempted, result.failed = 3, 1
    result.metrics = {"setup_s": 0.5}
    result.emit()
    last = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(last) == {"correct": False, "attempted": 3, "failed": 1,
                                "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}


def test_sink_forwards_writes_after_the_first():
    target = io.StringIO()
    sink = batch.Sink(target)
    sink.write("")  # click's probe of a new stream is not a record
    assert sink.first_at is None
    sink.write("a\n")
    sink.write("b\n")
    assert target.getvalue() == "a\nb\n" and sink.first_at is not None
