"""The ``census`` and ``stream`` workloads: batch jobs through ``cli.main``.

Each job runs CLI invocations with ``sys.stdout`` replaced by a sink that
writes to a file and notes when the first record arrives.  The checkers read
that file after the job, outside the timed region, and use only this file's
own parsing and intersection check, never the library's.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

#: Published Moore family counts (Habib & Nourine 2005; OEIS A102896).
PUBLISHED_COUNTS = {1: 2, 2: 7, 3: 61, 4: 2480, 5: 1385552}

#: The census computes its rows largest first, so the first record it
#: delivers is the n = 5 row rather than a sub-millisecond n = 1 row.
CENSUS_ORDER = (5, 4, 3, 2, 1)
CENSUS_FAMILIES = sum(PUBLISHED_COUNTS.values())

STREAM_N = 5
STREAM_RECORDS = PUBLISHED_COUNTS[STREAM_N]
#: SHA-256 of ``dedstar enumerate 5`` as written by the seed commit.
STREAM_SHA256 = "413489138a583c941b48ccc75f847b46642a9ec561d5b7fd320324a98130ac98"
#: Records per stream job re-validated with a full JSON parse.
STREAM_SAMPLE = 2000


def census_argvs() -> List[List[str]]:
    return [["count", str(n)] for n in CENSUS_ORDER]


def stream_argvs() -> List[List[str]]:
    return [["enumerate", str(STREAM_N)]]


class Sink:
    """``sys.stdout`` stand-in: a text file that notes its first write."""

    encoding = "utf-8"
    errors = "strict"

    def __init__(self, target) -> None:
        self.target = target
        self.first_at: Optional[float] = None

    def write(self, text: str) -> int:
        # click probes a stream with empty writes before its first echo.
        if text:
            self.first_at = time.perf_counter()
            self.write = self.target.write  # later records go straight to the file
        return self.target.write(text)

    def flush(self) -> None:
        self.target.flush()


class TracedSink(Sink):
    """Sink that closes the ``cli.record_write`` span opened by ``dumps``.

    The CLI writes each record as ``sink.write(json.dumps(record) + "\\n")``;
    the span runs from the start of ``dumps`` to the end of ``write``.
    """

    def __init__(self, target, tracer) -> None:
        super().__init__(target)
        self.tracer = tracer
        self.pending: Optional[float] = None

    def write(self, text: str) -> int:
        if self.first_at is None and text:
            self.first_at = time.perf_counter()
        written = self.target.write(text)
        if self.pending is not None:
            self.tracer.end("cli.record_write", self.pending)
            self.pending = None
        return written

    def json_proxy(self):
        sink = self

        class TracedJson:
            def __getattr__(self, name):
                return getattr(json, name)

            def dumps(self, *args, **kwargs):
                sink.pending = sink.tracer.begin()
                return json.dumps(*args, **kwargs)

        return TracedJson()


@dataclass
class JobTimes:
    """Clock readings of one job, and each invocation's exit code."""

    start: float
    first_record: float  # when the first record reached the sink
    end: float
    codes: List[int]


def run_job(cli, argvs: Sequence[Sequence[str]], out_path: str,
            tracer=None, around=None) -> JobTimes:
    """Run the invocations in order with stdout sent to ``out_path``.

    ``around`` is a context manager entered for the timed region only.  An
    invocation that raises gets exit code -1.
    """
    with open(out_path, "w", encoding="utf-8") as fh:
        sink = Sink(fh) if tracer is None else TracedSink(fh, tracer)
        saved_stdout, saved_json = sys.stdout, cli.json
        sys.stdout = sink
        if tracer is not None:
            cli.json = sink.json_proxy()
        codes = []
        try:
            with around if around is not None else contextlib.nullcontext():
                start = time.perf_counter()
                for argv in argvs:
                    try:
                        codes.append(cli.main(list(argv)))
                    except Exception:  # counted as a failed operation
                        codes.append(-1)
                sink.flush()
                end = time.perf_counter()
        finally:
            sys.stdout, cli.json = saved_stdout, saved_json
    first = sink.first_at if sink.first_at is not None else end
    return JobTimes(start, first, end, codes)


# ---------------------------------------------------------------------------
# Checkers


def check_census(lines: Sequence[str], codes: Sequence[int]) -> int:
    """Number of census rows (of len(CENSUS_ORDER)) that are wrong."""
    failed = 0
    for i, n in enumerate(CENSUS_ORDER):
        got = lines[i].strip() if i < len(lines) else None
        code = codes[i] if i < len(codes) else None
        if code != 0 or got != str(PUBLISHED_COUNTS[n]):
            failed += 1
    return failed + max(0, len(lines) - len(CENSUS_ORDER))


def member_tokens(n: int) -> dict:
    """Each subset's index-list text, as records print it, mapped to its mask."""
    return {
        ",".join(str(i) for i in range(n) if m >> i & 1).encode(): m
        for m in range(1 << n)
    }


def record_is_valid(line: bytes, n: int) -> bool:
    """Full parse: ascending distinct members, full set, closed under ``&``."""
    record = json.loads(line)
    if set(record) != {"n", "members"} or record["n"] != n:
        return False
    masks = []
    for member in record["members"]:
        if list(member) != sorted(set(member)) or any(not 0 <= i < n for i in member):
            return False
        masks.append(sum(1 << i for i in member))
    present = set(masks)
    full = (1 << n) - 1
    return (masks == sorted(present) and full in present
            and all(a & b in present for a in masks for b in masks))


def check_stream(lines, seed: int, n: int = STREAM_N,
                 expected_records: int = STREAM_RECORDS,
                 expected_sha256: str = STREAM_SHA256,
                 sample: int = STREAM_SAMPLE) -> int:
    """Failures in a stream of record lines (bytes, newline-terminated).

    Counts each missing or extra line, each line that does not parse or is
    not strictly above the previous one in canonical order (its members'
    encodings compared as a sequence), each sampled line that fails the full
    re-validation, and one for a digest that differs from the recorded one.
    """
    tokens = member_tokens(n)
    prefix = b'{"n":%d,"members":[[' % n
    suffix = b"]]}\n"
    sampled = set(random.Random(seed).sample(range(expected_records),
                                             min(sample, expected_records)))
    digest = hashlib.sha256()
    failed = 0
    count = 0
    prev = b""
    for line in lines:
        digest.update(line)
        try:
            if not (line.startswith(prefix) and line.endswith(suffix)):
                raise ValueError("not a family record")
            key = bytes(tokens[t] for t in line[len(prefix):-len(suffix)].split(b"],["))
            if key <= prev:
                raise ValueError("out of canonical order")
            prev = key
            if count in sampled and not record_is_valid(line, n):
                raise ValueError("not an intersection-closed family")
        except (ValueError, KeyError, TypeError):
            failed += 1
        count += 1
    failed += abs(count - expected_records)
    if digest.hexdigest() != expected_sha256:
        failed += 1
    return failed
