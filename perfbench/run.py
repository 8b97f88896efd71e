"""cftweave benchmark: the library calls of every CLI command, timed per command.

Run from the repository root:

    python3 perfbench/run.py --workload fanin-or --seed 1 --seconds 30 --trace 0

For every command, an op runs the library calls the CLI makes on one model,
from its text in memory to the command's full output.  A round runs every
op of the workload once, spread over one tick per real CLI process (the CLI
commands on both shipped fixtures).  Rounds repeat until ``--seconds`` is
used up, and there are at least three.  Every output is checked.  An op
that raises, times out or differs counts as failed.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
reference machine speed, measured by a calibration loop run around each
sample.  ``--trace 1`` traces every
other round, with spans around each call into a layer, and prints the
per-layer metrics.  The last line of stdout is the JSON result.  A table
with quartiles and sample counts comes before it.  See perfbench/README.md
for the workloads and metrics.
"""

import os
import sys
import time

# One set-up sample is taken here, in the interpreter that runs the workload,
# before anything else is imported; the others come from fresh interpreters.
if not os.path.isfile(os.path.join("src", "cftweave", "__init__.py")):
    print("perfbench: run from a cftweave checkout (src/cftweave not found)",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, "src")
_started = time.perf_counter()
import cftweave  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _started

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import pipeline  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, failures, self_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.txt")

MIN_ROUNDS = 3
CHEAP_PASS_S = 0.05  # a command whose pass takes less runs at every tick
OP_TIMEOUT_S = 60.0
HARD_LIMIT_S = 150.0   # no op starts, and none runs on, past this
CALIBRATION_LOOPS = 3000
# Times are reported at the speed of a machine on which calibrate() takes
# this long; see the README.
REFERENCE_CALIBRATION_S = 0.01
CALIBRATION_WINDOW_S = 1.0
E2E_TIMES = ("validate_s", "weave_s", "synthesize_s", "dot_s", "pre_s", "cutsets_s", "cli_s",
             "setup_s")
IMPORT_TIMER = ("import time; t = time.perf_counter(); import cftweave; "
                "print(time.perf_counter() - t)")


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout("op exceeded its time limit")


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH="src" + (os.pathsep + path if path else ""))


class Run:
    def __init__(self, cases, digests, deadline: float):
        self.cases = cases
        self.refs = {c.label: pipeline.Reference(c, digests) for c in cases}
        self.digests = digests
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def op(self, fn, *args):
        """Run one op under the per-op time limit; (result or None, seconds, error)."""
        self.attempted += 1
        limit = min(OP_TIMEOUT_S, self.deadline - time.perf_counter())
        if limit <= 0:
            return None, 0.0, "no time left before the hard limit"
        signal.setitimer(signal.ITIMER_REAL, limit)
        started = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # every failure of the program is a result
            result, error = None, f"{type(exc).__name__}: {exc}"[:200]
        finally:
            elapsed = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
        return result, elapsed, error

    def lib_op(self, tr: Tracer, case, command: str) -> float:
        """One command on one case, checked; returns its time."""
        tr.op += 1
        parts, elapsed, error = self.op(pipeline.RUNNERS[command], tr, case)
        if error is None:
            error = self.refs[case.label].check(command, parts)
        if error is not None:
            self.fail(f"{command} {case.label}: {error}")
        return elapsed

    def cli_op(self, label: str, command: str, argv, in_process: bool = False) -> float:
        """One CLI command, in a fresh process or through ``cli.main``."""
        runner = pipeline.cli_in_process if in_process else self._cli_process
        result, elapsed, error = self.op(runner, argv)
        if error is None:
            code, out = result
            want = self.digests.get(label, {}).get(command)
            if code != 0 or pipeline.digest([out]) != want:
                error = f"exit {code}, digest {pipeline.digest([out])} != {want}"
        if error is not None:
            self.fail(f"{label} {command}: {error}")
        return elapsed

    def _cli_process(self, argv):
        done = subprocess.run([sys.executable, "-m", "cftweave.cli", *argv],
                              env=child_env(), capture_output=True, encoding="utf-8",
                              timeout=OP_TIMEOUT_S)
        return done.returncode, done.stdout

    def import_op(self) -> float | None:
        """The package's import time, timed inside a fresh interpreter."""
        result, _, error = self.op(self._import_time)
        if error is not None:
            self.fail(f"import: {error}")
        return result

    def _import_time(self) -> float:
        done = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=child_env(),
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S,
                              check=True)
        return float(done.stdout)


def calibrate() -> float:
    """Time of a fixed pure-Python workload, independent of cftweave.

    It allocates and formats small dicts and strings and sorts short lists,
    as the pipeline does.  The machine's speed drifts by tens of percent
    over minutes, and this workload drifts with it.
    """
    started = time.perf_counter()
    kept: list[str] = []
    for i in range(CALIBRATION_LOOPS):
        node = {"name": f"c{i}", "ports": (i, i + 1), "kind": "OR" if i % 2 else "AND"}
        kept.append(",".join(f"{k}={v}" for k, v in node.items()))
        if len(kept) > 64:
            kept = sorted(set(kept))[:8]
    return time.perf_counter() - started


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + HARD_LIMIT_S
    signal.signal(signal.SIGALRM, _alarm)
    # One CPU for this process and the CLI processes it starts, so that the
    # calibration measures the CPU they run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    cases, probe = workloads.build(args.workload, args.seed)
    run = Run(cases, pipeline.load_digests(DIGESTS), deadline)
    layer: dict = {}
    if probe is not None:
        layer.update(check_probe(probe, run.digests, deadline, bool(args.trace)))
    if args.workload == "small-corpus":
        layer.update(certify(run, bool(args.trace)))
    timing = measure(run, args.seconds, bool(args.trace))

    for error in run.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    speed = statistics.median(value for _, value in timing.calibration)
    measured = {key: [elapsed for _, _, elapsed in samples]
                for key, samples in timing.untraced.items()}
    if args.trace:
        traced = {key: [elapsed for _, _, elapsed in samples]
                  for key, samples in timing.traced.items()}
        metrics = per_layer(layer, timing.traced_rounds, measured, traced)
        metrics["bench.calibration_s"] = speed
        rows = [(name, value, value, None, None, None) for name, value in metrics.items()]
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        scaled = scale_to_reference(timing.untraced, timing.calibration)
        rows = [(name, op_time(scaled, name)[0], *op_time(measured, name))
                for name in E2E_TIMES]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows.append(("peak_rss_mb", rss, rss, None, None, None))
        units = {name: "MB" if name == "peak_rss_mb" else "s" for name, *_ in rows}

    print(f"# workload {args.workload} seed {args.seed} rounds {timing.rounds} "
          f"trace {args.trace} calibration {speed:.6g} s "
          f"(median of {len(timing.calibration)})")
    print(f"# {'metric':34} {'reported':>12} {'measured':>12} {'q1':>12} {'q3':>12} {'n':>5}")
    for name, value, as_measured, q1, q3, n in rows:
        spread = f"{q1:12.6g} {q3:12.6g} {n:5d}" if n else ""
        print(f"  {name:34} {value:12.6g} {as_measured:12.6g} {spread}")
    result = {name: {"value": value, "unit": units[name]} for name, value, *_ in rows}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": result}))
    return 0


def check_probe(probe, digests, deadline: float, trace: bool) -> dict:
    """Run the depth probe once, checked like any op but kept out of the
    timings and of the failure count, so a known defect stays visible."""
    probe_run = Run([probe], digests, deadline)
    tracer = Tracer(on=trace)
    for command in ("synthesize", "dot", "pre", "cutsets"):
        probe_run.lib_op(tracer, probe, command)
    for error in probe_run.errors:
        print(f"perfbench: probe {error}", file=sys.stderr)
    found = {f"{name}.failed": count for name, count in failures(tracer.take()[0]).items()}
    found["probe.failed"] = probe_run.failed
    return found


def certify(run: Run, trace: bool) -> dict:
    """Certify every case with the truth-table oracle, once, untimed."""
    tracer = Tracer(on=trace)
    widest = 0
    for case in run.cases:
        result, _, error = run.op(tracer.call, "oracle.check", pipeline.oracle_check, case)
        if error is not None:
            run.fail(f"oracle {case.label}: {error}")
        else:
            widest = max(widest, result)
    spans, _ = tracer.take()
    return {"oracle.check.self_s": self_times(spans).get("oracle.check", 0.0),
            "oracle.checks": sum(len(case.tops) for case in run.cases),
            "oracle.max_variables": widest}


@dataclass
class Timing:
    """The samples of one run."""

    # (metric, op) -> [(start, end, elapsed)], from untraced and traced rounds
    untraced: dict = field(default_factory=lambda: defaultdict(list))
    traced: dict = field(default_factory=lambda: defaultdict(list))
    # per traced round: (self times, counts, failures, cli.main time)
    traced_rounds: list = field(default_factory=list)
    calibration: list = field(default_factory=list)  # (start, calibrate() time)
    rounds: int = 0


def measure(run: Run, seconds: float, trace: bool) -> Timing:
    """Sample every op until *seconds* are used up, in at least three rounds.

    The machine's speed drifts by tens of percent over seconds and
    minutes, so every metric is sampled all through the run, and each
    sample can be scaled to a reference speed by the calibrations around
    it.  A round is one tick per CLI command.  Each tick runs a
    calibration, the CLI command, a package import every third tick, a
    slice of the library ops, every op of a command whose whole pass is
    cheap, and a calibration again.  With *trace*, every other round is
    traced and runs each op exactly once.
    """
    timing = Timing()

    def calibrate_now() -> None:
        started = time.perf_counter()
        timing.calibration.append((started, calibrate()))

    def sample(times: dict, key, fn, *args) -> float | None:
        started = time.perf_counter()
        elapsed = fn(*args)
        if elapsed is not None:
            times[key].append((started, time.perf_counter(), elapsed))
        return elapsed

    cli_ops = pipeline.cli_commands()
    ticks = len(cli_ops)
    lib_ops = [(case, command) for case in run.cases for command in pipeline.COMMANDS]
    calibrate_now()
    timing.untraced[("setup_s", "import")].append((time.perf_counter(),) * 2 + (IMPORT_S,))
    run.import_op()  # fills the bytecode cache; not a sample
    cheap: set[str] = set()
    started = time.perf_counter()
    while True:
        tracer = Tracer(on=trace and timing.rounds % 2 == 0)
        times = timing.traced if tracer.on else timing.untraced
        repeat = set() if tracer.on else cheap
        spread = [op for op in lib_ops if op[1] not in repeat]
        every_tick = [op for op in lib_ops if op[1] in repeat]
        spent: dict = defaultdict(float)
        for tick, (label, command, argv) in enumerate(cli_ops):
            gc.collect()
            calibrate_now()
            sample(times, ("cli_s", f"{label} {command}"), run.cli_op, label, command, argv)
            if tick % 3 == 0 and not tracer.on:
                sample(times, ("setup_s", "import"), run.import_op)
            part = spread[tick * len(spread) // ticks:(tick + 1) * len(spread) // ticks]
            for case, command in part + every_tick:
                spent[command] += sample(times, (f"{command}_s", case.label),
                                         run.lib_op, tracer, case, command)
            calibrate_now()
        if tracer.on:
            main_s = sum(run.cli_op(label, command, argv, in_process=True)
                         for label, command, argv in cli_ops)
            spans, counts = tracer.take()
            timing.traced_rounds.append((self_times(spans), counts, failures(spans), main_s))
        else:
            cheap = {c for c in pipeline.COMMANDS
                     if spent[c] / (ticks if c in repeat else 1) < CHEAP_PASS_S}
        timing.rounds += 1
        now = time.perf_counter()
        per_round = (now - started) / timing.rounds
        if timing.rounds >= MIN_ROUNDS and now + per_round > started + seconds:
            return timing
        if now + per_round > run.deadline:
            return timing


def scale_to_reference(samples: dict, calibration) -> dict:
    """Each sample's time at the reference speed.

    The machine's speed for a sample is the median calibration taken from
    a second before the sample started to a second after it ended.
    """
    moments = [at for at, _ in calibration]
    scaled: dict = {}
    for key, runs in samples.items():
        scaled[key] = []
        for start, end, elapsed in runs:
            lo = bisect.bisect_left(moments, start - CALIBRATION_WINDOW_S)
            hi = bisect.bisect_right(moments, end + CALIBRATION_WINDOW_S)
            speed = statistics.median(value for _, value in calibration[lo:hi])
            scaled[key].append(elapsed * REFERENCE_CALIBRATION_S / speed)
    return scaled


def op_time(times: dict, metric: str):
    """A metric's value: the sum over its ops of each op's median time.

    Medians per op keep a pause that hits one op once (a garbage
    collection, a busy neighbour) out of the result.  Also returns the sums
    of the ops' first and third quartiles and the fewest samples of an op.
    """
    ops = [samples for (name, _), samples in times.items() if name == metric]
    if not ops:  # the run was cut before any round of this kind
        return 0.0, 0.0, 0.0, 0
    q = [quartiles(samples) for samples in ops]
    return (sum(m for _, m, _ in q), sum(q1 for q1, _, _ in q), sum(q3 for _, _, q3 in q),
            min(len(samples) for samples in ops))


LAYERS = ("textfmt", "model", "weaver", "synthesizer", "analyzer", "oracle", "cli")
SPANS = ("textfmt.parse", "textfmt.serialize", "textfmt.export_dot", "model.validate",
         "weaver.weave", "weaver.sidecar_lines", "synthesizer.synthesize",
         "synthesizer.to_prefix_text", "analyzer.cutsets_reduced", "analyzer.cutsets_pre")
COUNTS = ("textfmt.parse.calls", "textfmt.parse.bytes", "textfmt.serialize.bytes",
          "textfmt.export_dot.bytes", "model.components", "model.connections",
          "model.dependencies", "model.cft_nodes", "weaver.injections",
          "synthesizer.tree_nodes", "synthesizer.tree_leaves", "synthesizer.prefix_bytes",
          "synthesizer.prefix_per_node", "analyzer.reduced_cutsets", "analyzer.max_order",
          "analyzer.pre_products")


def per_layer(layer, traced_rounds, untraced, traced) -> dict:
    """Per-layer metrics of one traced run: self times per round (median
    over traced rounds), counts per round, failures, and the tracing
    overhead as traced over untraced command time, less one."""
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.self_s"] = statistics.median(
            selfs.get(name, 0.0) for selfs, _, _, _ in traced_rounds)
    _, counts, failed, _ = traced_rounds[0]
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    metrics["analyzer.useful_ratio"] = (counts["analyzer.reduced_cutsets"]
                                        / max(counts["analyzer.pre_products"], 1))
    metrics.update({"oracle.check.self_s": 0.0, "oracle.checks": 0,
                    "oracle.max_variables": 0, "probe.failed": 0})
    metrics["cli.process_s"] = op_time(traced, "cli_s")[0]
    metrics["cli.main_s"] = statistics.median(main_s for _, _, _, main_s in traced_rounds)
    metrics["cli.import_s"] = op_time(untraced, "setup_s")[0]
    for name in LAYERS:
        metrics[f"{name}.failed"] = failed.get(name, 0) + layer.pop(f"{name}.failed", 0)
    metrics.update(layer)
    commands = [f"{c}_s" for c in pipeline.COMMANDS]
    plain = sum(op_time(untraced, c)[0] for c in commands)
    metrics["trace.overhead"] = sum(op_time(traced, c)[0] for c in commands) / plain - 1
    return metrics


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("per_node"):
        return "bytes/node"
    if name.endswith(("ratio", "overhead")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
