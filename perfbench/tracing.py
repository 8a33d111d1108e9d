"""Per-layer tracing by wrapping sqfdepth's public functions from outside.

Every public function of every sqfdepth module is replaced, in each module
namespace that holds it, by a wrapper that records a span: calls, total time
and self time (duration minus the time covered by child spans).  Replacing by
identity in every namespace also catches names imported with ``from .x import
y``, such as ``build_strand`` inside ``certificates`` and ``cli`` or ``rank``
inside ``strands``.  Spans are aggregated in memory per phase as they close;
nothing inside the package is edited.

A few wrappers also count work taken from the call's arguments or result
(matrix cells per rank route, strand basis sizes, poset elements enumerated,
infeasible Stanley targets).  Those counts do not depend on the machine, so
two traced runs of one seed must agree on them exactly.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

OP_PHASES = ("warmup", "pass", "probe")

# Counting certificates: the checks driven by rho/alpha alone, no ranks.
COUNTING_CHECKS = (
    "certificates.check_lower_bound",
    "certificates.check_base_drop",
    "certificates.check_alternating_drop",
    "certificates.check_principal_gap",
    "certificates.check_layer_sandwich",
)

RANK_ROUTES = {"linalg.rank_bareiss": "bareiss", "linalg.rank_gf2": "gf2", "linalg.rank_mod_p": "modp"}

# Counts that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = (
    "linalg.rank_calls",
    "linalg.bareiss_calls",
    "linalg.bareiss_cells",
    "linalg.gf2_calls",
    "linalg.gf2_cells",
    "linalg.modp_calls",
    "linalg.modp_cells",
    "linalg.repeat_frac",
    "strands.build_calls",
    "strands.basis_elems",
    "poset.cache_hits",
    "poset.cache_misses",
    "poset.elements",
    "certificates.rank_split_calls",
    "stanley.targets_tried",
    "stanley.targets_infeasible",
    "stanley.failed",
    "instancefile.parse_calls",
    "cli.output_bytes",
)


def package_modules(package) -> list:
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__"
    ] + [package]


class Tracer:
    """Wraps the package's public functions and aggregates their spans.

    ``phase`` selects the bucket spans land in; ``None`` records nothing.
    Wrappers are present only inside :meth:`installed`.
    """

    def __init__(self, package):
        self.modules = package_modules(package)
        self.short = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in self.modules}
        self.phase: str | None = None
        # phase -> span name -> [calls, total_s, self_s, raised]
        self.spans: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0]))
        self.counts: dict = defaultdict(Counter)
        self._stack: list[float] = []
        self._seen: set = set()
        self._misses = 0
        self._originals = self._public_functions()
        self._enumerate = self._originals.get("poset.enumerate_quotient")
        self._hooks = {
            "linalg.rank_bareiss": self._on_rank,
            "linalg.rank_gf2": self._on_rank,
            "linalg.rank_mod_p": self._on_rank,
            "strands.build_strand": self._on_build_strand,
            "poset.enumerate_quotient": self._on_enumerate,
            "stanley.partition_exists": self._on_partition,
        }

    def _public_functions(self) -> dict:
        found = {}
        for mod in self.modules:
            if mod.__name__.count(".") == 0:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    found[f"{self.short[mod.__name__]}.{name}"] = obj
        return found

    @contextmanager
    def installed(self):
        by_id = {id(fn): self._wrap(name, fn) for name, fn in self._originals.items()}
        patched = []
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack.append(0.0)
            raised = 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                rec = self.spans[phase][name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                rec[3] += raised
            if hook is not None:
                hook(name, args, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-op bookkeeping -------------------------------------------------

    def begin_op(self) -> None:
        self._seen.clear()
        self._misses = 0

    def end_op(self, output_bytes: int) -> None:
        c = self.counts[self.phase]
        c["cli.output_bytes"] += output_bytes
        info = getattr(self._enumerate, "cache_info", None)
        if info is not None:
            stats = info()
            c["poset.cache_hits"] += stats.hits
            c["poset.cache_misses"] += stats.misses

    # -- hooks: machine-independent work counts -----------------------------

    def _on_rank(self, name, args, result, dur):
        entries = args[0]
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        c = self.counts[self.phase]
        c[f"linalg.{RANK_ROUTES[name]}_cells"] += rows * cols
        key = (name, args[1] if len(args) > 1 else None, rows, cols, hash(tuple(entries)))
        if key in self._seen:
            c["linalg.repeats"] += 1
        else:
            self._seen.add(key)

    def _on_build_strand(self, name, args, result, dur):
        self.counts[self.phase]["strands.basis_elems"] += sum(len(b) for b in result.bases)

    def _on_enumerate(self, name, args, result, dur):
        info = getattr(self._enumerate, "cache_info", None)
        misses = info().misses if info is not None else self._misses + 1
        if misses != self._misses:
            self._misses = misses
            self.counts[self.phase]["poset.elements"] += sum(len(row) for row in result.layers)

    def _on_partition(self, name, args, result, dur):
        c = self.counts[self.phase]
        if result is None:
            c["stanley.targets_infeasible"] += 1
            c["stanley.infeasible_s"] += dur
        else:
            c["stanley.feasible_s"] += dur

    # -- metrics -------------------------------------------------------------

    def _merged(self, phases):
        spans: dict = defaultdict(lambda: [0, 0.0, 0.0, 0])
        counts: Counter = Counter()
        for phase in phases:
            for name, rec in self.spans[phase].items():
                acc = spans[name]
                for i, v in enumerate(rec):
                    acc[i] += v
            counts.update(self.counts[phase])
        return spans, counts

    def span(self, phases, name: str) -> list:
        """[calls, total_s, self_s, raised] of one span name over the given phases."""
        return self._merged(phases)[0][name]

    def layer_metrics(self, phases=OP_PHASES) -> dict[str, float]:
        spans, counts = self._merged(phases)

        def calls(name):
            return spans[name][0]

        def total(name):
            return spans[name][1]

        def self_time(name):
            return spans[name][2]

        rank_calls = sum(calls(n) for n in RANK_ROUTES)
        m = {
            "linalg.rank_calls": rank_calls,
            "linalg.repeat_frac": counts["linalg.repeats"] / rank_calls if rank_calls else 0.0,
        }
        for name, route in RANK_ROUTES.items():
            m[f"linalg.{route}_calls"] = calls(name)
            m[f"linalg.{route}_s"] = total(name)
            m[f"linalg.{route}_cells"] = counts[f"linalg.{route}_cells"]
        m.update({
            "strands.scan_s": total("strands.exact_depth_multi"),
            "strands.scan_self_s": self_time("strands.exact_depth_multi"),
            "strands.build_calls": calls("strands.build_strand"),
            "strands.build_s": total("strands.build_strand"),
            "strands.basis_elems": counts["strands.basis_elems"],
            "poset.enumerate_s": total("poset.enumerate_quotient"),
            "poset.cache_hits": counts["poset.cache_hits"],
            "poset.cache_misses": counts["poset.cache_misses"],
            "poset.elements": counts["poset.elements"],
            "certificates.analyze_s": total("certificates.analyze"),
            "certificates.analyze_self_s": self_time("certificates.analyze"),
            "certificates.counting_s": sum(total(n) for n in COUNTING_CHECKS),
            "certificates.rank_split_s": total("certificates.check_rank_split"),
            "certificates.rank_split_calls": calls("certificates.check_rank_split"),
            "stanley.depth_s": total("stanley.stanley_depth"),
            "stanley.targets_tried": calls("stanley.partition_exists"),
            "stanley.targets_infeasible": counts["stanley.targets_infeasible"],
            "stanley.infeasible_s": counts["stanley.infeasible_s"],
            "stanley.feasible_s": counts["stanley.feasible_s"],
            "stanley.failed": spans["stanley.stanley_depth"][3],
            "instancefile.parse_s": total("instancefile.parse_instance"),
            "instancefile.parse_calls": calls("instancefile.parse_instance"),
            "monomials.validate_s": total("monomials.validate_pair"),
            "cli.self_s": sum(rec[2] for name, rec in spans.items() if name.startswith("cli.")),
            "cli.output_bytes": counts["cli.output_bytes"],
        })
        return m
