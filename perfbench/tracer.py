"""Per-layer tracing for the benchmark, done entirely from outside the package.

A traced pass replaces module-level names of the program with wrappers, at
the names their callers look up (``twopal.tester.grover_search`` is what
``quantum_test`` calls), runs the workload, and puts the originals back.
Each wrapper records one span: name, start, end and the enclosing span.
Spans are kept in memory and written out when the run ends; a span's self
time is its duration minus the durations of its child spans.

Per-symbol calls (``RotatedDoubledView.__getitem__``,
``QueryLedger.read_classical``) are never wrapped; their counts come from the
ledgers the wrapped calls return. A wrapped name that no longer exists, or
whose parameters changed, is left alone and the metrics that depend on it are
reported as absent instead of failing the run.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, attribute, leading parameter names the wrapper relies on)
TARGETS = {
    "experiment.run_experiment": ("twopal.experiment", "run_experiment", ("config",)),
    "experiment.gen_far": ("twopal.experiment", "gen_far", ("n", "epsilon", "rng")),
    "experiment.gen_member": ("twopal.experiment", "gen_member", ("half_u", "half_v")),
    "experiment.quantum_test": ("twopal.experiment", "quantum_test", ("x", "epsilon")),
    "experiment.classical_test": ("twopal.experiment", "classical_test", ("x", "epsilon")),
    "experiment.exact_member": ("twopal.experiment", "exact_member", ("x", "ledger")),
    "membership.exact_member": ("twopal.membership", "exact_member", ("x", "ledger")),
    "generators.distance_to_language": (
        "twopal.generators", "distance_to_language", ("x", "method"),
    ),
    "tester.left_string": ("twopal.tester", "left_string", ("x", "i", "sample")),
    "tester.right_string": ("twopal.tester", "right_string", ("x", "j", "sample")),
    "tester.Trie": ("twopal.tester", "Trie", ("alphabet_size",)),
    "tester.grover_search": (
        "twopal.tester", "grover_search", ("domain_size", "predicate", "rng"),
    ),
}

# per-layer metric -> (unit, wrapped names it needs)
METRICS = {
    "grover.scan_s": ("s", ("tester.grover_search",)),
    "grover.scan_evals": ("count", ("tester.grover_search",)),
    "grover.searches": ("count", ("tester.grover_search",)),
    "grover.rounds_s": ("s", ("tester.grover_search",)),
    "grover.rounds": ("count", ("tester.grover_search",)),
    "grover.charged_evals": ("count", ("tester.grover_search",)),
    "grover.found_ratio": ("ratio", ("tester.grover_search",)),
    "tester.row_table_s": ("s", ("tester.left_string", "tester.Trie")),
    "tester.row_fingerprints": ("count", ("tester.left_string",)),
    "tester.column_scan_s": (
        "s", ("experiment.classical_test", "tester.right_string", "tester.Trie"),
    ),
    "tester.column_fingerprints": ("count", ("tester.right_string",)),
    "tester.quantum_self_s": ("s", ("experiment.quantum_test",)),
    "tester.classical_self_s": ("s", ("experiment.classical_test",)),
    "trie.add_calls": ("count", ("tester.Trie",)),
    "trie.add_s": ("s", ("tester.Trie",)),
    "trie.contains_calls": ("count", ("tester.Trie",)),
    "trie.contains_s": ("s", ("tester.Trie",)),
    "trie.hit_ratio": ("ratio", ("tester.Trie",)),
    "distance.calls": ("count", ("generators.distance_to_language",)),
    "distance.fast_s": ("s", ("generators.distance_to_language",)),
    "distance.baseline_s": ("s", ("generators.distance_to_language",)),
    "generators.gen_far_calls": ("count", ("experiment.gen_far",)),
    "generators.gen_far_self_s": (
        "s", ("experiment.gen_far", "generators.distance_to_language"),
    ),
    "generators.far_attempts": (
        "count", ("experiment.gen_far", "generators.distance_to_language"),
    ),
    "generators.distinct_instance_ratio": ("ratio", ("experiment.gen_far",)),
    "generators.gen_member_s": ("s", ("experiment.gen_member",)),
    "membership.calls": (
        "count", ("experiment.exact_member", "membership.exact_member"),
    ),
    "membership.exact_s": (
        "s", ("experiment.exact_member", "membership.exact_member"),
    ),
    "membership.reads_total": (
        "count", ("experiment.exact_member", "membership.exact_member"),
    ),
    "membership.reads_per_n_max": (
        "reads/n", ("experiment.exact_member", "membership.exact_member"),
    ),
    "words.view_reads": (
        "count", ("experiment.exact_member", "membership.exact_member"),
    ),
    "experiment.self_s": ("s", ("experiment.run_experiment",)),
    "experiment.trials": ("count", ("experiment.run_experiment",)),
    "trace.wall_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


class Tracer:
    """Span recorder. Spans live in flat arrays until written out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # open spans: [span index, start, child seconds]
        self._stack: list[list] = []

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [index, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.span_start[index] = frame[1]
            self.span_end[index] = end
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    def parent_name(self) -> str | None:
        """Name of the innermost open span, if any."""
        if not self._stack:
            return None
        return self.names[self.span_name[self._stack[-1][0]]]

    def write(self, path: Path) -> None:
        """Dump every span as CSV (gzip): id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.span_name)):
                f.write(
                    f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i]!r},{self.span_end[i]!r}\n"
                )


def _params_match(obj, expected: tuple[str, ...]) -> bool:
    try:
        params = list(inspect.signature(obj).parameters)
    except (TypeError, ValueError):
        return False
    return params[: len(expected)] == list(expected)


def _arg(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _make_wrappers(tracer: Tracer, state: dict) -> dict:
    """One wrapper factory per target; each takes the original callable."""

    def plain(span: str):
        def factory(fn):
            def wrapper(*args, **kwargs):
                return tracer.call(span, fn, *args, **kwargs)

            return wrapper

        return factory

    def gen_far(fn):
        def wrapper(*args, **kwargs):
            word = tracer.call("generators.gen_far", fn, *args, **kwargs)
            state["far_digests"].add(
                hashlib.blake2b(word.symbols, digest_size=16).digest()
            )
            return word

        return wrapper

    def distance(fn):
        distance_module = importlib.import_module("twopal.distance")

        def wrapper(*args, **kwargs):
            x = _arg(args, kwargs, 0, "x")
            method = _arg(args, kwargs, 1, "method", "auto")
            if method == "auto":
                threshold = getattr(distance_module, "FAST_PATH_MIN_N", 0)
                method = "fast" if x.n > threshold else "baseline"
            if tracer.parent_name() == "generators.gen_far":
                tracer.counts["far_attempts"] += 1
            return tracer.call(f"distance.{method}", fn, *args, **kwargs)

        return wrapper

    def exact_member(fn):
        def wrapper(*args, **kwargs):
            x = _arg(args, kwargs, 0, "x")
            ledger = _arg(args, kwargs, 1, "ledger")
            before = ledger.classical_reads if ledger is not None else 0
            result = tracer.call("membership.exact", fn, *args, **kwargs)
            if ledger is not None and x.n >= 4 and x.n % 2 == 0:
                reads = ledger.classical_reads - before
                tracer.counts["reads_total"] += reads
                # the reversed pattern costs n reads; the rest go through the view
                tracer.counts["view_reads"] += reads - x.n
                state["reads_per_n_max"] = max(state["reads_per_n_max"], reads / x.n)
            return result

        return wrapper

    def trie(cls):
        class TracedTrie(cls):
            def add(self, s):
                return tracer.call("trie.add", super().add, s)

            def contains(self, s):
                hit = tracer.call("trie.contains", super().contains, s)
                tracer.counts["trie_hits"] += hit
                return hit

        TracedTrie.__name__ = cls.__name__
        return TracedTrie

    def grover_search(fn):
        def predicate_wrapper(predicate):
            def evaluate(i):
                return tracer.call("grover.scan", predicate, i)

            return evaluate

        def wrapper(*args, **kwargs):
            args = list(args)
            if len(args) > 1:
                args[1] = predicate_wrapper(args[1])
            else:
                kwargs["predicate"] = predicate_wrapper(kwargs["predicate"])
            ledger = _arg(args, kwargs, 4, "ledger")
            before = ledger.predicate_calls if ledger is not None else 0
            outcome = tracer.call("grover.search", fn, *args, **kwargs)
            tracer.counts["grover_rounds"] += len(outcome.rounds)
            tracer.counts["grover_found"] += outcome.found is not None
            if ledger is not None:
                tracer.counts["charged_evals"] += ledger.predicate_calls - before
            return outcome

        return wrapper

    return {
        "experiment.run_experiment": plain("experiment.run"),
        "experiment.gen_far": gen_far,
        "experiment.gen_member": plain("generators.gen_member"),
        "experiment.quantum_test": plain("tester.quantum"),
        "experiment.classical_test": plain("tester.classical"),
        "experiment.exact_member": exact_member,
        "membership.exact_member": exact_member,
        "generators.distance_to_language": distance,
        "tester.left_string": plain("tester.left_string"),
        "tester.right_string": plain("tester.right_string"),
        "tester.Trie": trie,
        "tester.grover_search": grover_search,
    }


class TracedRun:
    """Context manager: installs the wrappers it can and restores on exit.

    ``absent`` lists the targets that could not be wrapped.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.state = {"far_digests": set(), "reads_per_n_max": 0.0}
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "TracedRun":
        factories = _make_wrappers(self.tracer, self.state)
        for key, (module_name, attr, params) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(key)
                continue
            original = getattr(module, attr, None)
            if original is None or not _params_match(original, params):
                self.absent.append(key)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, factories[key](original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> tuple[dict, list]:
        """Per-layer metrics, and the names of those reported as absent.

        Absent metrics carry the value 0 so every named metric is printed.
        """
        t = self.tracer
        calls, total, self_s, counts = t.calls, t.total, t.self_time, t.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        gen_far_calls = calls["generators.gen_far"]
        values = {
            "grover.scan_s": total["grover.scan"],
            "grover.scan_evals": calls["grover.scan"],
            "grover.searches": calls["grover.search"],
            "grover.rounds_s": self_s["grover.search"],
            "grover.rounds": counts["grover_rounds"],
            "grover.charged_evals": counts["charged_evals"],
            "grover.found_ratio": ratio(counts["grover_found"], calls["grover.search"]),
            "tester.row_table_s": total["tester.left_string"] + total["trie.add"],
            "tester.row_fingerprints": calls["tester.left_string"],
            "tester.column_scan_s": self._classical_scan_s(),
            "tester.column_fingerprints": calls["tester.right_string"],
            "tester.quantum_self_s": self_s["tester.quantum"],
            "tester.classical_self_s": self_s["tester.classical"],
            "trie.add_calls": calls["trie.add"],
            "trie.add_s": total["trie.add"],
            "trie.contains_calls": calls["trie.contains"],
            "trie.contains_s": total["trie.contains"],
            "trie.hit_ratio": ratio(counts["trie_hits"], calls["trie.contains"]),
            "distance.calls": calls["distance.fast"] + calls["distance.baseline"],
            "distance.fast_s": total["distance.fast"],
            "distance.baseline_s": total["distance.baseline"],
            "generators.gen_far_calls": gen_far_calls,
            "generators.gen_far_self_s": self_s["generators.gen_far"],
            "generators.far_attempts": counts["far_attempts"],
            "generators.distinct_instance_ratio": ratio(
                len(self.state["far_digests"]), gen_far_calls
            ),
            "generators.gen_member_s": total["generators.gen_member"],
            "membership.calls": calls["membership.exact"],
            "membership.exact_s": total["membership.exact"],
            "membership.reads_total": counts["reads_total"],
            "membership.reads_per_n_max": self.state["reads_per_n_max"],
            "words.view_reads": counts["view_reads"],
            "experiment.self_s": self_s["experiment.run"],
            "experiment.trials": self._trial_ops(),
            "trace.wall_s": traced_wall_s,
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
        }
        missing = set(self.absent)
        absent = []
        out = {}
        for name, (unit, needs) in METRICS.items():
            if missing.intersection(needs):
                absent.append(name)
                out[name] = {"value": 0, "unit": unit}
            else:
                out[name] = {"value": values[name], "unit": unit}
        return out, absent

    def _spans_under(self, parent_name: str, child_names: set[str]):
        """Indices of spans named in child_names whose parent is parent_name."""
        t = self.tracer
        parent_id = t._name_ids.get(parent_name)
        wanted = {t._name_ids[n] for n in child_names if n in t._name_ids}
        if parent_id is None or not wanted:
            return
        for i in range(len(t.span_name)):
            p = t.span_parent[i]
            if t.span_name[i] in wanted and p >= 0 and t.span_name[p] == parent_id:
                yield i

    def _classical_scan_s(self) -> float:
        """Column fingerprints and trie lookups made directly by the classical
        tester, i.e. its full column scan."""
        t = self.tracer
        spans = self._spans_under(
            "tester.classical", {"tester.right_string", "trie.contains"}
        )
        return sum((t.span_end[i] - t.span_start[i] for i in spans), 0.0)

    def _trial_ops(self) -> int:
        """Tester and decider calls made directly by the experiment harness."""
        ops = {"tester.quantum", "tester.classical", "membership.exact"}
        return sum(1 for _ in self._spans_under("experiment.run", ops))
