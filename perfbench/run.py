#!/usr/bin/env python3
"""fraseo benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run it from the repository root (any directory works; paths are resolved
from this file). It imports the package from ``src`` and uses the standard
library only. With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run. The lines before it are for people:
sample counts, the error rate, host context and the output digest.

The exit status is 0 when a result was printed (``correct`` says whether
every output passed its check) and 2 when the package cannot be found.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MODULES = ("cli", "pipeline", "planner", "realizer", "lexicon", "grammar", "lm", "builder")
SETUP_SAMPLES = 9
INTERP_SAMPLES = 5
LOAD_SAMPLES = 5
LOAD_OP = -2  # operation id of the resource loads timed in traced runs
BLOCK_S = 0.1  # operations between two calibration kernel runs, seconds
KERNEL_WINDOW = 6  # kernel samples around a block that set its scale

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

SELF_LAYERS = tracing.LAYERS + ("process",)
_LM_QUERIES = ("lm.top_preposition", "lm.preposition_after", "lm.reflexive_probability")
PER_LAYER = (
    ("planner.plan_ms", "ms"),
    ("planner.plan_share", "ratio"),
    ("planner.plan_calls", "count"),
    ("planner.plans_returned", "count"),
    ("planner.plans_used_ratio", "ratio"),
    ("planner.tokenize_ms", "ms"),
    ("planner.echo_no_content", "count"),
    ("planner.echo_no_verb", "count"),
    ("planner.echo_no_structure", "count"),
    ("planner.corpus_top1_hits", "count"),
    ("lexicon.lookup_lemma_calls", "count"),
    ("lexicon.lookup_form_calls", "count"),
    ("lexicon.lookup_ms", "ms"),
    ("lm.query_calls", "count"),
    ("lm.query_ms", "ms"),
    ("realizer.realize_calls", "count"),
    ("realizer.realize_ms", "ms"),
    ("realizer.inflect_calls", "count"),
    ("realizer.duplicate_ratio", "ratio"),
    ("pipeline.load_resources_ms", "ms"),
    ("lexicon.load_ms", "ms"),
    ("grammar.load_ms", "ms"),
    ("lm.load_ms", "ms"),
    ("realizer.polarity_load_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.format_self_ms", "ms"),
    ("builder.build_ms", "ms"),
    ("lexicon.save_ms", "ms"),
    ("lm.train_ms", "ms"),
    ("lm.save_ms", "ms"),
    ("grammar.enumerate_ms", "ms"),
    ("grammar.trees_enumerated", "count"),
) + tuple(
    ("%s.self_ms" % layer, "ms") for layer in SELF_LAYERS
) + tuple(
    ("%s.self_share" % layer, "ratio") for layer in SELF_LAYERS
) + (
    ("trace.coverage", "ratio"),
    ("trace.spans_per_pass", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.interp_start_ms", "ms"),
    ("host.ref_loop_ms", "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def interp_start_samples(env):
    samples = []
    for _ in range(INTERP_SAMPLES):
        started = time.perf_counter()
        status, _out, _rss, ended = workloads.run_child([sys.executable, "-c", "pass"], env)
        if status != 0:
            raise RuntimeError("bare interpreter exited with %d" % status)
        samples.append(ended - started)
    return samples


def setup_samples(env):
    """import fraseo + load_default_resources() in fresh processes, seconds.

    Returns raw samples and samples scaled by the calibration kernel run
    on either side of each. One unreported run comes first: in a fresh
    checkout it compiles the bytecode, which no later run pays for.
    """
    raw, scaled = [], []
    before = calibrate.kernel_seconds()
    for index in range(SETUP_SAMPLES + 1):
        status, out, _rss, _ended = workloads.run_child(
            [sys.executable, str(HERE / "child.py"), "setup"], env)
        if status != 0:
            raise RuntimeError("setup child exited with %d: %s" % (status, out[-2000:]))
        after = calibrate.kernel_seconds()
        if index:
            seconds = json.loads(out)["setup_s"]
            raw.append(seconds)
            scaled.append(seconds * calibrate.REFERENCE_S / ((before * after) ** 0.5))
        before = after
    return raw, scaled


class Runner:
    """Runs operations of one workload and counts and checks every one."""

    def __init__(self, workload):
        self.workload = workload
        self.items = workload.items
        self.first = [None] * len(self.items)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def index(self, i):
        return (self.workload.start + i) % len(self.items)

    def execute(self, index, call):
        """Run ``call`` on item ``index``; returns its wall time in seconds."""
        item = self.items[index]
        started = time.perf_counter()
        try:
            output = call(item)
            error = None
        except Exception as exc:  # a failed operation, counted and reported
            output = None
            error = "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - started
        self.record(index, output, error)
        return elapsed

    def record(self, index, output, error=None):
        item = self.items[index]
        self.attempted += 1
        if error is None:
            try:
                error = self.workload.check(item, output)
            except Exception as exc:  # output too malformed to check
                error = "check raised %s: %s" % (type(exc).__name__, exc)
        if error is None:
            rendered = self.workload.render(item, output)
            if self.first[index] is None:
                self.first[index] = rendered
                self.workload.note_first(item, output)
            elif rendered != self.first[index]:
                error = "output differs from an earlier run of the same input"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("item %d: %s" % (index, error))

    def digest(self):
        text = "\n".join(rendered or "" for rendered in self.first)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def self_test(workload):
    """A planted exception and a planted wrong output must each count as failed."""
    probe = Runner(workload)

    def planted_exception(_item):
        raise RuntimeError("planted exception")

    probe.execute(0, planted_exception)
    caught_exception = probe.failed == 1
    probe.record(0, workload.planted_wrong(workload.items[0]))
    caught_wrong = probe.failed == 2
    return caught_exception and caught_wrong


def quantile(values, percent):
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def measure(runner, seconds):
    """Closed loop until ``seconds`` pass and every input ran once.

    Operations run in blocks of at least BLOCK_S, with the calibration
    kernel timed between blocks. Each block is scaled by the median of the
    KERNEL_WINDOW kernel samples around it: host phases last seconds, so a
    window of about a second still follows them, while a single 5 ms kernel
    sample is too noisy on its own. Returns raw and scaled latencies, raw
    and scaled wall time, and the kernel samples.
    """
    workload = runner.workload
    blocks = []
    kernel = [calibrate.kernel_seconds()]
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(runner.items) or time.perf_counter() < deadline:
        block = []
        block_start = time.perf_counter()
        while not block or time.perf_counter() - block_start < BLOCK_S:
            block.append(runner.execute(runner.index(i), workload.run))
            i += 1
        blocks.append((block, time.perf_counter() - block_start))
        kernel.append(calibrate.kernel_seconds())
    raw, scaled = [], []
    wall = [0.0, 0.0]
    half = KERNEL_WINDOW // 2
    for k, (block, block_wall) in enumerate(blocks):
        # Block k lies between kernel samples k and k + 1.
        nearby = kernel[max(0, k + 1 - half):k + 1 + half]
        scale = calibrate.REFERENCE_S / statistics.median(nearby)
        raw.extend(block)
        scaled.extend(latency * scale for latency in block)
        wall[0] += block_wall
        wall[1] += block_wall * scale
    return raw, scaled, wall, kernel


def measure_traced(runner, tracer, pkg, seconds):
    """Alternate untraced and traced passes over all inputs.

    Returns the operation ids of each traced pass, the untraced and traced
    seconds per operation, and calibration kernel samples taken between
    passes.
    """
    workload = runner.workload
    op_name = tracer.name_id(tracing.OP_SPAN)
    if workload.in_process:
        tracer.install(pkg)
        tracer.current_op = LOAD_OP
        tracer.active = True
        for _ in range(LOAD_SAMPLES):
            pkg["pipeline"].load_default_resources()
        tracer.active = False
        tracer.uninstall()

    def traced_call(item):
        tracer.active = True
        span = tracer.open(op_name)
        try:
            if workload.in_process:
                return workload.run(item)
            return workload.run_traced(item, tracer, span)
        finally:
            tracer.close(span)
            tracer.active = False

    plain = [0.0, 0]
    traced = [0.0, 0]
    passes = []
    kernel = [calibrate.kernel_seconds()]
    op_id = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for k in range(len(runner.items)):
            plain[0] += runner.execute(runner.index(k), workload.run)
            plain[1] += 1
        if workload.in_process:
            tracer.install(pkg)
        ids = []
        try:
            for k in range(len(runner.items)):
                tracer.current_op = op_id
                ids.append(op_id)
                op_id += 1
                traced[0] += runner.execute(runner.index(k), traced_call)
                traced[1] += 1
        finally:
            tracer.uninstall()
        passes.append(ids)
        tracer.current_op = -1
        kernel.append(calibrate.kernel_seconds())
    return passes, plain[0] / plain[1], traced[0] / traced[1], kernel


def layer_metrics(tracer, passes, load_ops, plain_s, traced_s, workload):
    every = [op for ids in passes for op in ids]
    s = tracing.Summary(tracer, every)
    first = tracing.Summary(tracer, passes[0])
    loads = tracing.Summary(tracer, load_ops)
    op_ms = s.ms(tracing.OP_SPAN)

    def share(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def first_exceptions(exc_name):
        return sum(first.exceptions.get((name, exc_name), 0)
                   for name in ("planner.tokenize", "planner.plan_structures"))

    realized = first.calls.get("realizer.realize", 0)
    candidates = first.values.get("pipeline.generate", 0)
    plans = first.values.get("planner.plan_structures", 0)
    m = {
        "planner.plan_ms": s.ms_per_op("planner.plan_structures"),
        "planner.plan_share": share(s.ms("planner.plan_structures"), s.ms("pipeline.generate")),
        "planner.plan_calls": first.calls.get("planner.plan_structures", 0),
        "planner.plans_returned": plans,
        "planner.plans_used_ratio": share(candidates, plans),
        "planner.tokenize_ms": s.ms_per_op("planner.tokenize"),
        "planner.echo_no_content": first_exceptions("EmptyInputError"),
        "planner.echo_no_verb": first_exceptions("NoVerbError"),
        "planner.echo_no_structure": first_exceptions("NoStructureError"),
        "planner.corpus_top1_hits": getattr(workload, "top1_hits", 0),
        "lexicon.lookup_lemma_calls": first.calls.get("lexicon.lookup_lemma", 0),
        "lexicon.lookup_form_calls": first.calls.get("lexicon.lookup_form", 0),
        "lexicon.lookup_ms": s.ms_per_op("lexicon.lookup_lemma") + s.ms_per_op("lexicon.lookup_form"),
        "lm.query_calls": sum(first.entry_calls.get(name, 0) for name in _LM_QUERIES),
        "lm.query_ms": sum(s.entry_total.get(name, 0.0) for name in _LM_QUERIES) * 1e3 / s.ops,
        "realizer.realize_calls": realized,
        "realizer.realize_ms": s.ms_per_op("realizer.realize"),
        "realizer.inflect_calls": first.calls.get("lexicon.inflect", 0),
        "realizer.duplicate_ratio": share(realized - candidates, realized),
        "pipeline.load_resources_ms": loads.ms_per_call("pipeline.load_resources"),
        "lexicon.load_ms": loads.ms_per_call("lexicon.load"),
        "grammar.load_ms": loads.ms_per_call("grammar.load"),
        "lm.load_ms": loads.ms_per_call("lm.load"),
        "realizer.polarity_load_ms": loads.ms_per_call("realizer.load_polarity_pairs"),
        "cli.import_ms": s.ms_per_op("cli.import"),
        "cli.format_self_ms": s.name_self.get("cli.main", 0.0) * 1e3 / s.ops,
        "builder.build_ms": s.ms_per_op("builder.build_lexicon"),
        "lexicon.save_ms": s.ms_per_op("lexicon.save"),
        "lm.train_ms": s.ms_per_op("lm.train_model"),
        "lm.save_ms": s.ms_per_op("lm.save"),
        "grammar.enumerate_ms": s.ms_per_op("grammar.enumerate_trees"),
        "grammar.trees_enumerated": first.values.get("grammar.enumerate_trees", 0),
    }
    for layer in SELF_LAYERS:
        m["%s.self_ms" % layer] = s.self_ms_per_op(layer)
        m["%s.self_share" % layer] = share(s.layer_self.get(layer, 0.0) * 1e3, op_ms)
    m["trace.coverage"] = 1.0 - share(s.layer_self.get("bench", 0.0) * 1e3, op_ms)
    m["trace.spans_per_pass"] = sum(first.calls.values())
    m["trace.overhead_ratio"] = traced_s / plain_s
    return m


def run(args, workdir):
    env = workloads.child_env(ROOT)
    lines = ["workload %s seed %d seconds %g trace %d" % (
        args.workload, args.seed, args.seconds, args.trace)]
    setup_raw, setup = setup_samples(env) if not args.trace else ([], [])
    interp = interp_start_samples(env)

    started = time.perf_counter()
    fraseo = importlib.import_module("fraseo")
    resources = fraseo.load_default_resources()
    lines.append("setup in this process: %.4f s" % (time.perf_counter() - started))
    pkg = {name: importlib.import_module("fraseo." + name) for name in MODULES}
    ctx = SimpleNamespace(pkg=pkg, resources=resources, workdir=workdir, root=ROOT)
    workload = workloads.WORKLOADS[args.workload](args.seed, ctx)

    checker_ok = self_test(workload)
    lines.append("checker self-test: %s" % (
        "planted exception and planted wrong output both counted as failed"
        if checker_ok else "FAILED, a planted fault was not counted"))
    runner = Runner(workload)

    if args.trace:
        tracer = tracing.Tracer()
        passes, plain_s, traced_s, kernel = measure_traced(runner, tracer, pkg, args.seconds)
        load_ops = [LOAD_OP] if workload.in_process else [op for ids in passes for op in ids]
        metrics = layer_metrics(tracer, passes, load_ops, plain_s, traced_s, workload)
        # Layer times, like the end-to-end ones, read at the reference host speed.
        scale = calibrate.REFERENCE_S / statistics.median(kernel)
        for name, unit in PER_LAYER:
            if unit == "ms" and not name.startswith("host."):
                metrics[name] *= scale
        metrics["host.interp_start_ms"] = statistics.median(interp) * 1e3
        metrics["host.ref_loop_ms"] = statistics.median(kernel) * 1e3
        trace_path = OUT_DIR / ("trace-%s-seed%d.tsv.gz" % (args.workload, args.seed))
        tracer.write(trace_path)
        lines.append("traced passes %d, %d spans written to %s" % (
            len(passes), len(tracer), trace_path.relative_to(ROOT)))
        units = PER_LAYER
    else:
        raw, scaled, wall, kernel = measure(runner, args.seconds)
        if workload.in_process:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kib = workload.max_rss_kib
        metrics = {
            "setup_s": statistics.median(setup),
            "latency_p50_ms": quantile(scaled, 50) * 1e3,
            "latency_p90_ms": quantile(scaled, 90) * 1e3,
            "throughput_ops_per_s": len(scaled) / wall[1],
            "peak_rss_mb": rss_kib / 1024.0,
        }
        n = len(raw)
        lines.append("samples: %d operations (%d above p50, %d above p90, %d above p99), "
                     "%d setup runs" % (n, n // 2, n // 10, n // 100, len(setup)))
        lines.append("scaled to the reference host speed: setup_s %.4f p50 %.3f ms p90 %.3f ms "
                     "p99 %.3f ms throughput %.2f/s" % (
                         metrics["setup_s"], metrics["latency_p50_ms"],
                         metrics["latency_p90_ms"], quantile(scaled, 99) * 1e3,
                         metrics["throughput_ops_per_s"]))
        lines.append("raw wall clock: setup_s %.4f p50 %.3f ms p90 %.3f ms p99 %.3f ms "
                     "throughput %.2f/s" % (
                         statistics.median(setup_raw), quantile(raw, 50) * 1e3,
                         quantile(raw, 90) * 1e3, quantile(raw, 99) * 1e3, n / wall[0]))
        lines.append("host.interp_start_ms %.3f host.ref_loop_ms %.3f (kernel median of %d, "
                     "range %.3f-%.3f)" % (
                         statistics.median(interp) * 1e3, statistics.median(kernel) * 1e3,
                         len(kernel), min(kernel) * 1e3, max(kernel) * 1e3))
        units = END_TO_END

    lines.append("error_rate %d/%d = %.6f" % (
        runner.failed, runner.attempted, runner.failed / max(runner.attempted, 1)))
    lines.extend("error: %s" % error for error in runner.errors)
    if hasattr(workload, "top1_hits"):
        lines.append("planner.corpus_top1_hits %d of %d targets" % (
            workload.top1_hits, sum(1 for _w, ref in workloads.CORPUS if "target" in ref)))
    lines.append("digest %s %s" % (args.workload, runner.digest()))
    for line in lines:
        print(line)
    return {
        "correct": checker_ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


def main(argv=None):
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is salted per process by default, which moves every
        # figure by several percent from one run to the next. Start again with
        # a fixed salt; child processes inherit it.
        env = dict(os.environ, PYTHONHASHSEED="0")
        argv = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + argv, env)
    args = parse_args(argv)
    if not (SRC / "fraseo" / "__init__.py").is_file():
        print("perfbench: no fraseo package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
