"""In-memory tracing of calls into the library's public functions.

The tracer replaces a function with a wrapper wherever one of the library's
modules binds it (so ``stars.closure``, imported from ``moore``, is traced as
``moore.closure``), records each call's span and, for every name, keeps the
number of calls, the total span and the self time: the span minus the part
covered by traced child calls.  Everything stays in memory until the run
prints it.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence, Tuple

#: Public functions wrapped per module: the ones the benchmark reports.
#: Everything else the library runs (element-level helpers such as
#: ``mask_of``, ``is_moore`` or the ``ext_*`` scalars, and public functions
#: no metric names, such as ``is_principal_upfilter``) is left unwrapped, so
#: its time counts toward its caller's self time.
TRACED_FUNCTIONS = {
    "moore": (
        "count_moore", "moore_generate", "closure", "family_meet", "family_join",
        "family_to_record", "hasse", "poset_iso",
    ),
    "stars": (
        "apply", "is_closed", "star_le", "star_meet", "star_join", "v_of",
        "d_of_overring", "classify",
    ),
    "extvec": ("vec_mul", "vec_colon", "vec_inf", "vec_le"),
    "rationals": ("vector_of_module", "module_member", "colon_oracle"),
    "cli": ("main",),
}


class Tracer:
    """Span aggregation with a stack of open spans for self time."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self._stack: List[float] = []  # child time covered, per open span
        self._restore: List[Tuple[object, str, object]] = []

    def _slot(self, name: str) -> List[float]:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def begin(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def end(self, name: str, start: float) -> None:
        span = time.perf_counter() - start
        child = self._stack.pop()
        slot = self._slot(name)
        slot[0] += 1
        slot[1] += span
        slot[2] += span - child
        if self._stack:
            self._stack[-1] += span

    def wrap(self, name: str, fn: Callable) -> Callable:
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            start = begin()
            try:
                return fn(*args, **kwargs)
            finally:
                end(name, start)

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time a generator's first ``next`` and its later ones apart."""
        begin, end = self.begin, self.end
        calls = self._slot(name)

        def traced(*args, **kwargs):
            calls[0] += 1
            inner = fn(*args, **kwargs)
            part = name + ".first"
            while True:
                start = begin()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end(part, start)
                part = name + ".next"
                yield item

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap the traced functions in every module that binds them."""
        for mod_name, names in TRACED_FUNCTIONS.items():
            for fname in names:
                original = getattr(modules[mod_name], fname)
                wrapper = self.wrap(f"{mod_name}.{fname}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        moore = modules["moore"]
        self._patch(moore, "enumerate_moore",
                    self.wrap_generator("moore.enumerate_moore", moore.enumerate_moore))
        self._patch(moore.MooreFamily, "__contains__",
                    self.wrap("moore.contains", moore.MooreFamily.__contains__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def wrapper_cost_s(repeats: int = 7, calls: int = 20000) -> float:
    """Median extra time one traced call costs over a direct call."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        direct = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - direct) / calls)
    costs.sort()
    return costs[len(costs) // 2]


def layer_metrics(stats: Dict[str, List[float]], names: Sequence[str], jobs: int,
                  scale: float = 1.0) -> Dict[str, float]:
    """Per-job values for ``<module>.<function>.calls`` / ``.self_s`` names,
    with times multiplied by ``scale``."""
    out = {}
    for metric in names:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            slot = stats.get(base) or stats.get(base + ".first")
            out[metric] = round((slot[0] if slot else 0) / jobs)
        elif kind == "self_s":
            slot = stats.get(base)
            out[metric] = (slot[2] if slot else 0.0) * scale / jobs
        elif kind in ("first_s", "next_s"):
            slot = stats.get(f"{base}.{kind[:-2]}")
            out[metric] = (slot[2] if slot else 0.0) * scale / jobs
    return out
