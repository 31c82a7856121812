"""
Span recorders installed around braidwork's public functions at run time.

`Tracer.install` replaces each listed function, wherever a braidwork module
has bound it (for example `braidwork.solvers.rewrite` as well as
`braidwork.garside.rewrite`), with a wrapper that records a span; `remove`
puts the originals back. Nothing under src/ changes. A span is
(id, name, start, end, parent id, op id, self seconds), in process CPU
seconds, where self time is the duration minus the time its direct children
cover. Spans stay in memory until `write`.

Cheap word constructors (compose, invert, ...) and the permutation helpers
inside garside are not wrapped: their time is in the caller's self time.
`enumerate_products` is a generator, so each `next()` on it is a span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

LAYERS = {
    "words": ["enumerate_products"],
    "garside": ["normal_form", "rewrite", "words_equal", "is_trivial", "canonical_length", "nf_key"],
    "handle": ["handle_reduce", "is_trivial_handle_reduction", "shift_preimage"],
    "subgroups": ["elements_commute", "sets_commute", "noncommuting_witness", "centralizer_search"],
    "protocols": [
        "make_preset",
        "ka_run",
        "validate_conditions",
        "dehornoy_keygen",
        "dehornoy_commit",
        "dehornoy_respond",
        "dehornoy_verify",
    ],
    "extractors": [
        "build_mscsp_dhdp",
        "build_stickel_instance",
        "build_gtcp_instances",
        "build_dehornoy_centralizer_instance",
        "ce_conjugate_sample",
        "ce_difference_pair",
    ],
    "solvers": ["solve_exhaustive", "solve_power", "solve_length_descent", "verify_solution"],
    "attacks": [
        "attack_decomposition",
        "attack_stickel",
        "attack_dehornoy_pair",
        "attack_dehornoy_centralizer",
        "solve_gtcp",
        "decide_edl",
        "partial_factor_attack",
        "complete_base",
    ],
}
SOLVER_ENTRY = {"solvers.solve_exhaustive", "solvers.solve_power", "solvers.solve_length_descent"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.op = -1
        self.paused = False
        self._stack: list[list] = []  # [span id, name index, start, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []
        # Counters measured where the work happens.
        self.nf_hits = self.nf_misses = 0
        self.nf_miss_seconds = 0.0
        self.nf_miss_letters = 0
        self.solver_calls = self.solved = self.first_candidate = self.candidates = 0
        self.pairs = 0
        self.yielded: list[list[tuple]] = []  # words yielded, per enumerate_products call

    # -- span bookkeeping -------------------------------------------------
    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, idx: int) -> list:
        frame = [self._next_id, idx, time.process_time(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = time.process_time()
        self._stack.pop()
        duration = end - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (frame[0], frame[1], frame[2], end, parent[0] if parent else -1, self.op, duration - frame[3])
        )
        return duration

    def span(self, name: str, fn):
        """Wrap fn so each call records a span called `name`."""
        idx = self._name(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = self._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            self._count(name, result)
            return result

        return wrapper

    def _count(self, name: str, result) -> None:
        if name in SOLVER_ENTRY:
            self.solver_calls += 1
            self.candidates += result.candidates_tested
            self.solved += result.solved
            self.first_candidate += result.solved and result.candidates_tested == 1
        elif name.startswith("extractors.build_"):
            self.pairs += len(result.pairs)

    def _normal_form(self, fn):
        idx = self._name("garside.normal_form")
        info = fn.cache_info

        @functools.wraps(fn)
        def wrapper(word):
            if self.paused:
                return fn(word)
            misses = info().misses
            frame = self._open(idx)
            try:
                return fn(word)
            finally:
                self._close(frame)
                if info().misses > misses:
                    self.nf_misses += 1
                    self.nf_miss_seconds += self.spans[-1][6]
                    self.nf_miss_letters += len(word.letters)
                else:
                    self.nf_hits += 1

        return wrapper

    def _generator(self, name: str, fn):
        idx = self._name(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if self.paused:
                yield from inner
                return
            seen: list[tuple] = []
            self.yielded.append(seen)
            while True:
                frame = self._open(idx)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(frame)
                seen.append((item.strands, item.letters))
                yield item

        return wrapper

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside record no spans, e.g. the benchmark's own oracle."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        modules = {m: sys.modules[f"braidwork.{m}"] for m in LAYERS}
        wrappers = {}
        for layer, names in LAYERS.items():
            for name in names:
                original = getattr(modules[layer], name)
                full = f"{layer}.{name}"
                if full == "garside.normal_form":
                    wrappers[id(original)] = self._normal_form(original)
                elif full == "words.enumerate_products":
                    wrappers[id(original)] = self._generator(full, original)
                else:
                    wrappers[id(original)] = self.span(full, original)
        for module in list(modules.values()) + [sys.modules["braidwork"]]:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results ----------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Span count and self seconds per span name."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(self.names[span[1]], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += span[6]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["id", "name", "start", "end", "parent", "op", "self_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
