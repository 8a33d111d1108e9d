"""sqfdepth benchmark: closed-loop CLI ops on a seeded corpus, one workload per process.

    python3 perfbench/run.py --workload depth_heavy --seed 1 --seconds 20 --trace 0

One client, one thread: each op is an in-process ``sqfdepth.cli.main([...])``
call on an instance file written before any timing, with stdout captured; the next
op starts only after the previous one returns.  The poset cache is cleared and
garbage is collected before every op, outside its timing, so each op costs
what one CLI invocation costs.  The timed phase repeats whole passes over
the corpus until ``--seconds`` have been measured.  Answers are checked after
each pass, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
reference speed of the box, sampled by a timer while the timed phase runs
(speed.py); the raw times are printed on ``#`` lines.  ``--trace 1`` runs the same
untraced timed phase, then one traced pass (see tracing.py), and prints the
per-layer metrics.  It also checks that a second traced run of the seed, in a
fresh process, repeats every machine-independent count, and that every layer
the workload must reach was reached.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 1
SETUPS_PER_ROUND = 3  # set-ups before the first pass and after each; setup_s is their median
DEADLINE_CPU_S = 10.0  # per-op deadline in process CPU time; the slowest passing op takes 3.5-5.6 s

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from corpus import (  # noqa: E402
    SDEPTH_PROBES, WARMUP_ARGV, WARMUP_DOC, WORKLOADS, Case, build_corpus, named_cases, select_draws,
)
from tracing import DETERMINISTIC, Tracer  # noqa: E402

# Coverage guard: spans that must fire in the traced pass of each workload.
_COMMON = ("cli.main", "instancefile.parse_instance", "monomials.validate_pair", "poset.enumerate_quotient")
_DEPTH = ("strands.exact_depth_multi", "strands.build_strand", "linalg.rank_bareiss", "linalg.rank_gf2",
          "certificates.analyze", "certificates.check_rank_split")
_STANLEY = ("stanley.stanley_depth", "stanley.partition_exists")
REQUIRED_SPANS = {
    "depth_heavy": _COMMON + _DEPTH,
    "sdepth_hard": _COMMON + _STANLEY,
    "analyze_small": _COMMON + _DEPTH + _STANLEY + ("linalg.rank_mod_p",),
}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref_s": "s", "ops_per_ref_s": "1/s", "op_ref_ms_p50": "ms", "op_ref_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_raw_s": "s", "wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
}


class OpDeadline(Exception):
    """Raised inside an op that ran past its CPU-time deadline."""


def _on_deadline(signum, frame):
    raise OpDeadline()


@dataclass
class OpResult:
    case: Case
    rc: int | None
    out: str
    error: str | None
    seconds: float  # net of speed samples, like cpu_seconds
    cpu_seconds: float
    start: float  # perf_counter() at its start and end
    end: float

    @property
    def failed(self) -> bool:
        return self.error is not None or self.rc != 0

    def describe(self) -> str:
        outcome = self.error or (f"exit {self.rc}" if self.rc else "ok")
        return f"{self.case.name}: {outcome} after {self.seconds:.2f} s"


def digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def percentile(values: list[float], q: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    i = int(pos)
    if i + 1 >= len(s):
        return s[-1]
    return s[i] + (s[i + 1] - s[i]) * (pos - i)


def tail_percentile(n: int) -> float:
    """The highest percentile, to 0.1, with at least 10 of n samples beyond it."""
    return math.floor(1000 * (1 - 10 / n)) / 10


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric == "generate.s":
        return "s"
    if metric.endswith("_frac"):
        return "1"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


class Bench:
    """One workload's corpus on disk, the op runner and the answer checks."""

    def __init__(self, workload: str, seed: int, tracer: Tracer | None = None):
        from sqfdepth import cli, generate, instancefile, monomials, poset, stanley

        self.cli, self.generate, self.instancefile = cli, generate, instancefile
        self.monomials, self.stanley = monomials, stanley
        self.cache_clear = getattr(poset.enumerate_quotient, "cache_clear", None)
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.tracer = tracer
        self.golden = json.loads(GOLDEN.read_text())[workload]
        # Untimed: the rejection sampling, whose length depends on the seed, and
        # the instance files, which are the benchmark's own I/O (writing the
        # same 1200 files took 0.07-0.8 s on one file system).
        t = perf_counter()
        self.draws = select_draws(workload, seed, generate, instancefile)
        self.workdir = tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-")
        cases = named_cases(workload) + [draw.case for draw in self.draws]
        self.paths = [path for _, path in self._write(cases, "ops")]
        probes = [Case(n, d) for n, d in SDEPTH_PROBES.items()] if workload == "sdepth_hard" else []
        self.probes = self._write(probes, "probes")
        (self.warmup_op,) = self._write([Case("warmup", WARMUP_DOC)], "warmup")
        self.prepare_s = perf_counter() - t
        # Ops run in a seeded shuffled order, the same in every pass.  The
        # corpus lists each stratum together, and the speed of the machine
        # drifts over seconds: in corpus order the ops that set op_ms_p50 ran
        # within the same two seconds of each pass.
        self.order = list(range(len(cases)))
        random.Random(seed).shuffle(self.order)
        self.ops: list[tuple[Case, Path]] = []
        self.meter = speed.Meter()

    # -- set-up ---------------------------------------------------------------

    def _write(self, cases: list[Case], sub: str) -> list[tuple[Case, Path]]:
        folder = Path(self.workdir.name, sub)
        folder.mkdir()
        out = []
        for i, case in enumerate(cases):
            path = folder / f"{i:05d}_{case.name}.json"
            path.write_text(json.dumps(case.doc))
            out.append((case, path))
        return out

    def set_up(self) -> None:
        """Corpus generation, checked against the instance files' contents, and one warm-up op."""
        cases = build_corpus(self.workload.name, self.draws, self.generate, self.instancefile)
        ops = list(zip(cases, self.paths, strict=True))
        self.ops = [ops[i] for i in self.order]
        self.warmup()

    def warmup(self) -> OpResult:
        case, path = self.warmup_op
        result = self.run_op(case, [*WARMUP_ARGV, str(path)])
        if result.failed:
            raise RuntimeError(f"warm-up op failed: {result.describe()}")
        return result

    def clean(self) -> None:
        self.workdir.cleanup()

    # -- ops -----------------------------------------------------------------

    def run_op(self, case: Case, argv: list[str]) -> OpResult:
        # Start each op as a fresh CLI process would: no cached posets and no
        # garbage left by earlier ops (the Stanley search leaves a reference
        # cycle holding its memo table).
        if self.cache_clear is not None:
            self.cache_clear()
        gc.collect()
        tracing = self.tracer is not None and self.tracer.phase is not None
        if tracing:
            self.tracer.begin_op()
        out = io.StringIO()
        rc = error = None
        t0, c0, s0 = perf_counter(), process_time(), self.meter.spent
        try:
            try:
                signal.setitimer(signal.ITIMER_PROF, DEADLINE_CPU_S)
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    t0, c0, s0 = perf_counter(), process_time(), self.meter.spent
                    rc = self.cli.main(argv)
                    t1, c1, s1 = perf_counter(), process_time(), self.meter.spent
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
        except (Exception, SystemExit) as exc:  # raised, hit the deadline or exited: one failed op
            t1, c1, s1 = perf_counter(), process_time(), self.meter.spent
            error = type(exc).__name__
        text = out.getvalue()
        if tracing:
            self.tracer.end_op(len(text.encode()))
        return OpResult(case, rc, text, error, t1 - t0 - (s1 - s0), c1 - c0 - (s1 - s0), t0, t1)

    def run_all(self, items) -> list[OpResult]:
        return [self.run_op(case, [*self.workload.argv, str(path)]) for case, path in items]

    def run_pass(self) -> tuple[list[OpResult], float, float]:
        """One pass over the corpus: its results, wall time and CPU time summed over its ops."""
        results = self.run_all(self.ops)
        return results, sum(r.seconds for r in results), sum(r.cpu_seconds for r in results)

    # -- correctness ----------------------------------------------------------

    def check_op(self, result: OpResult, golden: bool = True) -> list[str]:
        """Every check the op's answer fails; ``golden`` compares it with golden.json."""
        name = result.case.name
        try:
            doc = json.loads(result.out)
        except json.JSONDecodeError:
            return [f"{name}: output is not JSON"]
        problems = []
        if "depth" in doc:  # analyze
            answer = {"depth": doc["depth"], "sdepth": doc["sdepth"]}
            if doc.get("consistent") is not True:
                problems.append(f"{name}: report not consistent")
            # Homology over GF(p) can only be larger, so depth over GF(p) <= depth over Q.
            q = doc["depth"].get("q")
            for label, value in doc["depth"].items():
                if q is not None and value > q:
                    problems.append(f"{name}: depth over {label} is {value} > depth over q {q}")
        else:
            answer = {"sdepth": doc["sdepth"]}
        if doc.get("witness") is not None:
            problems += self._verify_witness(result.case, doc["sdepth"], doc["witness"])
        ref = self.workload.reference.get(name)
        if ref is not None and answer["sdepth"] != ref:
            problems.append(f"{name}: sdepth {answer['sdepth']} != reference {ref}")
        if golden:
            problems += self._golden_problems(result.case, answer)
        return problems

    def _verify_witness(self, case: Case, value: int, witness: list[dict]) -> list[str]:
        st, mono = self.stanley, self.monomials.Monomial
        inst = self.instancefile.parse_instance(json.dumps(case.doc))
        intervals = tuple(
            st.Interval(mono.from_support(inst.n, iv["bottom"]), mono.from_support(inst.n, iv["top"]))
            for iv in witness
        )
        check = st.verify_partition(inst, st.IntervalPartition(intervals=intervals, sdepth_value=value))
        problems = [] if check.ok else [f"{case.name}: witness rejected: {check.reason}"]
        if not intervals or min(iv.top.degree for iv in intervals) != value:
            problems.append(f"{case.name}: witness min top degree differs from sdepth {value}")
        return problems

    def _golden_problems(self, case: Case, answer: dict) -> list[str]:
        entry = self.golden.get(case.name)
        if entry is None or entry[0] != digest(case.doc):
            # Seeded cases only match at the golden seed; there they must match.
            if self.seed == GOLDEN_SEED:
                return [f"{case.name}: no golden answer for this instance at seed {GOLDEN_SEED}"]
            return []
        if entry[1] != answer:
            return [f"{case.name}: answer {answer} differs from golden {entry[1]}"]
        return []

    def check(self, results: list[OpResult], golden: bool = True) -> tuple[int, list[str]]:
        """(wrong ops, problems) over the ops that did not fail."""
        wrong, problems = 0, []
        for result in results:
            if result.failed:
                continue
            found = self.check_op(result, golden)
            if found:
                wrong += 1
                problems += found
        return wrong, problems


def traced_ops(bench: Bench, tracer: Tracer) -> tuple[OpResult, list[OpResult], float, list[OpResult]]:
    """Warm-up, one pass and the probes, each in its own trace phase."""
    tracer.phase = "warmup"
    warm = bench.warmup()
    tracer.phase = "pass"
    results, wall, _ = bench.run_pass()
    tracer.phase = "probe"
    probes = bench.run_all(bench.probes)
    tracer.phase = None
    return warm, results, wall, probes


def deterministic_counts(tracer: Tracer, results: list[OpResult]) -> dict:
    metrics = tracer.layer_metrics()
    counts = {k: metrics[k] for k in DETERMINISTIC}
    counts["failed_ops"] = sum(r.failed for r in results)
    return counts


def counts_child(args) -> int:
    """The second traced run of the determinism self-check: print its counts."""
    import sqfdepth

    tracer = Tracer(sqfdepth)
    bench = Bench(args.workload, args.seed, tracer)
    try:
        bench.set_up()
        gc.freeze()
        with tracer.installed():
            _, results, _, probes = traced_ops(bench, tracer)
    finally:
        bench.clean()
    print(json.dumps(deterministic_counts(tracer, results + probes), sort_keys=True))
    return 0


def counts_repeat(args, counts: dict, timeout: float) -> list[str]:
    """Problems found by comparing counts with a second traced run in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "1", "--counts-only"]
    try:
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return ["determinism check: the second traced run timed out"]
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return [f"determinism check: the second traced run failed: {child.stderr[-500:]}"]
    other = json.loads(lines[-1])
    diffs = [f"{k}: {v} vs {other.get(k)}" for k, v in counts.items() if v != other.get(k)]
    return ["determinism check: counts differ: " + "; ".join(diffs)] if diffs else []


def set_up_round(bench: Bench, tracer: Tracer | None, setups: list[float], raw: list[float]) -> None:
    """SETUPS_PER_ROUND set-ups, each a fresh import of the package plus Bench.set_up.

    ``raw`` gets each set-up's seconds, net of speed samples, and ``setups``
    the same at the reference speed.
    """
    meter = bench.meter
    for _ in range(SETUPS_PER_ROUND):
        t, s0 = perf_counter(), meter.spent
        import_package()  # timed only: the bench and tracer keep the modules they hold
        if tracer is None:
            bench.set_up()
        else:
            with tracer.installed():
                tracer.phase = "setup"
                bench.set_up()
                tracer.phase = None
        end = perf_counter()
        seconds = end - t - (meter.spent - s0)
        raw.append(seconds)
        setups.append(seconds * meter.scale(t, end))
    gc.collect()
    gc.freeze()  # keep the corpus and golden answers out of the per-op collections


def measure(args, bench: Bench, tracer: Tracer | None) -> int:
    # Set-up rounds run before the first pass and after every pass: the speed
    # of the machine drifts over seconds, and one cluster of short set-ups
    # would sample a single moment of it.
    setups: list[float] = []
    raw_setups: list[float] = []
    walls, cpus, passes = [], [], []  # passes: (seconds, start, end) of each op
    attempted = failed = wrong = 0
    problems: list[str] = []
    with bench.meter.running():
        set_up_round(bench, tracer, setups, raw_setups)
        while not walls or sum(walls) < args.seconds:
            results, wall, cpu = bench.run_pass()
            walls.append(wall)
            cpus.append(cpu)
            passes.append([(r.seconds, r.start, r.end) for r in results])
            attempted += len(results)
            failed += sum(r.failed for r in results)
            problems += [f"failed op: {r.describe()}" for r in results if r.failed]
            w, found = bench.check(results)
            wrong += w
            problems += found
            set_up_round(bench, tracer, setups, raw_setups)

    guard: list[str] = []
    probes: list[OpResult] = []
    if tracer is None:
        scaled = [[seconds * bench.meter.scale(start, end) for seconds, start, end in ops] for ops in passes]
        ref_walls = [sum(times) for times in scaled]
        case_ms = [1000 * statistics.median(times) for times in zip(*scaled)]  # one per case, over passes
        raw_ms = [1000 * statistics.median(op[0] for op in ops) for ops in zip(*passes)]
        q_tail = tail_percentile(len(case_ms))
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref_s": statistics.median(ref_walls),
            "ops_per_ref_s": attempted / sum(ref_walls),
            "op_ref_ms_p50": percentile(case_ms, 50),
            "op_ref_ms_tail": percentile(case_ms, q_tail),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        raw_values = {
            "setup_raw_s": statistics.median(raw_setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "ops_per_s": attempted / sum(walls),
            "op_ms_p50": percentile(raw_ms, 50),
            "op_ms_tail": percentile(raw_ms, q_tail),
        }
        print(f"# tail is p{q_tail} over {len(case_ms)} cases, each the median of its {len(walls)} ops")
        print(f"# raw times, net of speed samples; scaling took op time to {sum(ref_walls) / sum(walls):.4f} "
              f"of it, from {len(bench.meter.took)} speed samples")
        for k, v in raw_values.items():
            print(f"# {k} {v} {END_TO_END_UNITS[k]}")
    else:
        with tracer.installed():
            t = perf_counter()
            warm, results, traced_wall, probes = traced_ops(bench, tracer)
            traced_s = perf_counter() - t
            tracer.phase = "check"
            w, found = bench.check(results)
            w_warm, found_warm = bench.check([warm], golden=False)  # its witness: verify_s > 0
            tracer.phase = None
        attempted += len(results)
        failed += sum(r.failed for r in results)
        problems += [f"failed op: {r.describe()}" for r in results if r.failed]
        wrong += w + w_warm
        problems += found + found_warm
        layer = tracer.layer_metrics()
        layer["stanley.verify_s"] = tracer.span(("check",), "stanley.verify_partition")[1]
        layer["generate.s"] = tracer.span(("setup",), "generate.random_instance")[1] / len(setups)
        layer["trace.overhead_s"] = traced_wall - walls[-1]  # against the untraced pass just before it
        guard = [f"coverage guard: {name} saw no calls in the traced pass"
                 for name in REQUIRED_SPANS[args.workload] if tracer.span(("pass",), name)[0] == 0]
        # The child repeats the corpus selection and files, one set-up and the
        # traced ops; three times what those took here is ample on a slow box.
        child_s = bench.prepare_s + statistics.median(raw_setups) + traced_s
        guard += counts_repeat(args, deterministic_counts(tracer, results + probes), 3 * child_s)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layer.items())}

    for r in probes:
        print(f"# probe {r.describe()}")
        w, found = bench.check([r], golden=False)
        wrong += w
        problems += found
    print(f"# {args.workload} seed {args.seed}: {len(bench.ops)} ops per pass, {len(walls)} timed passes, "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    print(f"# failed_frac {failed / attempted:.6f} 1")
    print(f"# wrong_frac {wrong / attempted:.6f} 1")
    for k, v in metrics.items():
        print(f"# {k} {v['value']} {v['unit']}")
    for p in (problems + guard)[:20]:
        print(f"problem: {p}", file=sys.stderr)

    correct = wrong == 0 and failed == 0 and not guard
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def import_package() -> None:
    """Import sqfdepth and its CLI afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "sqfdepth" or m.startswith("sqfdepth.")]:
        del sys.modules[name]
    importlib.import_module("sqfdepth.cli")  # the package does not import its CLI


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "sqfdepth" / "__init__.py").is_file():
        print(f"error: sqfdepth sources not found under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGPROF, _on_deadline)

    sys.path.insert(0, str(SRC))
    import_package()
    if args.counts_only:
        return counts_child(args)
    import sqfdepth

    tracer = Tracer(sqfdepth) if args.trace else None
    bench = Bench(args.workload, args.seed, tracer)
    try:
        return measure(args, bench, tracer)
    finally:
        bench.clean()


if __name__ == "__main__":
    sys.exit(main())
