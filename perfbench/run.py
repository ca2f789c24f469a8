"""Benchmark of ``riskshare payout``: threat model -> budget -> Shapley split -> report.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trailers-exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each op drives the real entry point, ``riskshare.cli.main``, in-process and in
a closed loop: one client, one op at a time. Every op reads a freshly
generated input instance, so no cross-call cache can serve it. Every output
is checked against the closed-form oracle; a failed check makes the run
exit 1. With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced run.
End-to-end timings are scaled by an interleaved calibration kernel to a fixed
machine speed, because this machine's speed drifts by up to 2x within minutes.
See README.md in this directory for the workloads and metric definitions.
"""

import sys

# The set-up probe times a cold import of riskshare; never leave bytecode behind.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # generated inputs, removed when the run ends
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 15
RSS_PROBES = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
MIN_OPS = TAIL_BEYOND + 1
MIN_TRACED_OPS = 3
CHILD_TIMEOUT_S = 120
#: Time of ``calibration_kernel`` on the sandbox the bounds were set on, when quiet.
KERNEL_NOMINAL_S = 0.045

LAYER_TIMES = (
    "config.load", "documents.load", "risk.validate", "risk.delta", "mining.parse",
    "mining.attribute", "games.build", "games.materialize", "shapley.solve", "shapley.audit",
    "payout.budget", "payout.allocate", "payout.render", "payout.parse", "payout.render_md",
)
COUNTS = (  # computed from the generated inputs, not read from the program
    "documents.bytes_in", "mining.commits", "games.table_entries", "games.terms",
    "shapley.marginal_terms", "shapley.audit_pairs",
)


def load_riskshare():
    """Import riskshare from this checkout's ``src``; exit if it is not there."""
    if not (SRC / "riskshare" / "cli.py").is_file():
        sys.exit(f"perfbench: {SRC / 'riskshare'} not found; run from a riskshare checkout")
    sys.path.insert(0, str(SRC))
    import riskshare.cli

    if Path(riskshare.__file__).resolve().parent != SRC / "riskshare":
        sys.exit(f"perfbench: imported riskshare from {riskshare.__file__}, not from {SRC}")
    return riskshare


class Bench:
    """Runs and checks ops of one workload; counts attempts and failures."""

    def __init__(self, riskshare, workload: str, seed: int, work: Path):
        self.riskshare = riskshare
        self.workload = workload
        self.seed = seed
        self.work = work
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fresh(self) -> gen.Instance:
        inst = gen.instance(self.workload, self.work, self.seed, self.index)
        self.index += 1
        return inst

    def op(self, inst: gen.Instance, wrap=None, same_as: list[bytes] | None = None) -> float | None:
        """Run one op through ``cli.main`` and check it; return its wall time.

        With ``same_as``, the op's outputs must also equal those bytes.
        """
        main = self.riskshare.cli.main
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                codes = [(wrap or main)(run.argv) for run in inst.runs]
                elapsed = time.perf_counter() - start
        except Exception as exc:  # a traceback is a failed op, not a crashed benchmark
            self.record([f"cli.main raised {exc!r}"])
            return None
        problems = self.check(inst, codes)
        if same_as is not None and self.outputs(inst) != same_as:
            problems.append("reports differ from an earlier run on the same input")
        self.record(problems)
        return elapsed

    @staticmethod
    def check(inst: gen.Instance, codes) -> list[str]:
        problems = []
        for run, code in zip(inst.runs, codes):
            if code != 0:
                problems.append(f"{' '.join(run.argv[:1])} exited {code}")
                continue
            try:
                text = run.out.read_text(encoding="utf-8")
                if run.markdown_of is None:
                    found = oracle.check_report(text, run.expect)
                else:
                    found = oracle.check_markdown(text, run.expect, run.markdown_of.read_text(encoding="utf-8"))
            except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                found = [f"unreadable output: {exc!r}"]
            problems += [f"{run.out.parent.name}/{run.out.name}: {p}" for p in found]
        return problems

    def record(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:3]

    def outputs(self, inst: gen.Instance) -> list[bytes]:
        return [run.out.read_bytes() if run.out.exists() else b"" for run in inst.runs]

    def deterministic(self, inst: gen.Instance):
        """Run one instance twice; the reports must be byte-identical."""
        self.op(inst)
        self.op(inst, same_as=self.outputs(inst))

    def worked_example(self):
        """The paper's three-developer example must reproduce its figures exactly."""
        argv = gen.worked_example(self.work / "worked-example")
        report_path = Path(argv[-1])
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.riskshare.cli.main(argv)
            md_code = self.riskshare.cli.main(["report", str(report_path), "--format", "markdown"]) if code == 0 else 1
        problems = []
        if code != 0 or md_code != 0:
            problems.append("worked example did not run")
        else:
            doc = json.loads(report_path.read_text(encoding="utf-8"))
            phi = {r["player"]: r["phi"] for r in doc["payouts"]}
            pay = {r["player"]: oracle.money(r["payment"]["amount_minor"], "USD") for r in doc["payouts"]}
            budget = oracle.money(doc["budget"]["amount_minor"], "USD")
            if (phi, budget, pay) != (gen.WORKED_PHI, gen.WORKED_BUDGET, gen.WORKED_PAYMENTS):
                problems.append(f"worked example gave {phi} {budget} {pay}")
        self.record(problems)


def child(*args) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-I", "-B", str(HERE / "probe.py"), str(SRC), *map(str, args)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)


def calibration_kernel(n: int = 14) -> Fraction:
    """Fixed reference work: one player's exact subset sum over a 2**n table.

    It does the kind of work the ops do (Fraction arithmetic over a value
    table) and never changes, so its time tracks the machine's current speed.
    """
    vals = [Fraction(m * 7 % 11, 3) for m in range(1 << n)]
    weight = [Fraction(math.factorial(s) * math.factorial(n - s - 1), math.factorial(n)) for s in range(n)]
    rest = (1 << n) - 2
    total, sub = Fraction(0), rest
    while True:
        total += weight[sub.bit_count()] * (vals[sub | 1] - vals[sub])
        if sub == 0:
            return total
        sub = (sub - 1) & rest


def kernel_seconds() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def setup_probe() -> float:
    return float(child("setup").stdout)


def peak_rss_mib(bench: Bench) -> float:
    """Median peak RSS of fresh processes that import riskshare and run one op."""
    inst = bench.fresh()
    argv_file = bench.work / "probe-argv.json"
    argv_file.write_text(json.dumps([run.argv for run in inst.runs]), encoding="utf-8")
    peaks = []
    for _ in range(RSS_PROBES):
        try:
            doc = json.loads(child("op", argv_file).stdout.splitlines()[-1])
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            bench.record([f"probe process failed: {exc}"])
            continue
        bench.record(Bench.check(inst, doc["codes"]))
        peaks.append(doc["peak_kib"] / 1024)
    return statistics.median(peaks) if peaks else 0.0  # 0 only in a run that failed


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)  # fewer ops only when some raised: the run fails anyway
    return ordered[k], 100 * (k + 1) / len(ordered)


def timed_loop(seconds: float, min_rounds: int, step) -> None:
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        step()
        rounds += 1


def measure_end_to_end(bench: Bench, seconds: float, say) -> dict:
    """Timings are scaled to the machine speed at which the calibration kernel
    takes KERNEL_NOMINAL_S: each op's or probe's wall time is multiplied by
    KERNEL_NOMINAL_S over the mean kernel time measured just before and just
    after it. The raw wall times are printed alongside."""
    bench.deterministic(bench.fresh())  # also warms the process up
    rss = peak_rss_mib(bench)
    raw: dict[str, list[float]] = {"op": [], "setup": [], "kernel": []}
    scaled: dict[str, list[float]] = {"op": [], "setup": []}
    start = time.perf_counter()

    def timed(kind: str, fn):
        before = raw["kernel"][-1]
        value = fn()
        raw["kernel"].append(kernel_seconds())
        if value is not None:
            raw[kind].append(value)
            scaled[kind].append(value * 2 * KERNEL_NOMINAL_S / (before + raw["kernel"][-1]))

    def step():
        inst = bench.fresh()
        timed("op", lambda: bench.op(inst))
        shutil.rmtree(inst.directory)
        # Spread the set-up probes over the run, between ops, so that they
        # sample the same machine conditions as the ops do.
        if len(scaled["setup"]) < SETUP_PROBES and time.perf_counter() - start >= len(scaled["setup"]) * seconds / SETUP_PROBES:
            timed("setup", setup_probe)

    raw["kernel"].append(kernel_seconds())
    timed_loop(seconds, MIN_OPS, step)
    while len(scaled["setup"]) < SETUP_PROBES:
        timed("setup", setup_probe)
    tail_s, pct = tail(scaled["op"])
    say(f"op_s.tail is p{pct:.1f} of {len(scaled['op'])} ops ({TAIL_BEYOND} beyond it)")
    say(
        f"raw wall times: op median {statistics.median(raw['op'])} s, op tail {tail(raw['op'])[0]} s, "
        f"setup median {statistics.median(raw['setup'])} s; calibration kernel median "
        f"{statistics.median(raw['kernel'])} s (nominal {KERNEL_NOMINAL_S} s)"
    )
    return {
        "op_s.median": statistics.median(scaled["op"]),
        "op_s.tail": tail_s,
        "setup_s": statistics.median(scaled["setup"]),
        "peak_rss_mb": rss,
    }


def measure_layers(bench: Bench, seconds: float, say) -> dict:
    riskshare = bench.riskshare
    cap = riskshare.games.MATERIALIZATION_CAP
    tracer = tracing.Tracer()
    bench.deterministic(bench.fresh())
    traced_times, plain_times, per_op = [], [], []
    missing: list[str] = []

    def traced_main(argv):
        with tracer.span("cli.main"):
            return riskshare.cli.main(argv)

    def step():
        inst = bench.fresh()
        tracer.op = len(per_op)
        with tracing.installed(tracer, riskshare, cap) as absent:
            elapsed = bench.op(inst, wrap=traced_main)
        missing[:] = absent
        traced = bench.outputs(inst)
        report_bytes = sum(map(len, traced))
        bench.op(inst, same_as=traced)  # untimed: the untraced CLI must write the same bytes
        plain = bench.fresh()
        plain_elapsed = bench.op(plain)
        if elapsed is not None and plain_elapsed is not None:
            traced_times.append(elapsed)
            plain_times.append(plain_elapsed)
        per_op.append((inst.stats, report_bytes))
        shutil.rmtree(inst.directory)
        shutil.rmtree(plain.directory)

    timed_loop(seconds, MIN_TRACED_OPS, step)
    if missing:
        say(f"patch points absent from the program (time counted in the caller): {', '.join(missing)}")
    selfs = tracer.self_times()
    metrics = {"cli.self_s": statistics.median(selfs[k]["cli.main"] for k in range(len(per_op)))}
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = statistics.median(selfs[k][name] for k in range(len(per_op)))
    for name in COUNTS:
        metrics[name] = statistics.median(stats[name] for stats, _ in per_op)
    metrics["mining.claim_ratio"] = statistics.median(
        stats["mining.claims"] / stats["mining.commits"] if stats["mining.commits"] else 0.0 for stats, _ in per_op
    )
    metrics["games.terms_per_entry"] = statistics.median(
        stats["games.terms"] / stats["games.evaluated"] for stats, _ in per_op
    )
    metrics["payout.report_bytes"] = statistics.median(b for _, b in per_op)
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
    say(f"traced ops: {len(traced_times)}; counts other than payout.report_bytes are computed from the inputs")
    return metrics


def load_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(riskshare, workload: str, seed: int, seconds: int, trace: int, say) -> tuple[Bench, dict]:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        bench = Bench(riskshare, workload, seed, work)
        bench.worked_example()
        measure = measure_layers if trace else measure_end_to_end
        metrics = measure(bench, seconds, say)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    return bench, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = load_units()
    riskshare = load_riskshare()
    print(
        f"# conditions: nproc={os.cpu_count()} python={platform.python_version()} "
        f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}; "
        "set-up probes run 'python -I -B', so riskshare is compiled from source on each import; "
        f"bytecode cache in src/riskshare: {'present' if (SRC / 'riskshare' / '__pycache__').exists() else 'absent'}"
    )
    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    result: dict = {}
    for workload in workloads:
        def say(text, workload=workload):
            print(f"# {workload}: {text}")

        bench, metrics = run_workload(riskshare, workload, args.seed, args.seconds, args.trace, say)
        attempted += bench.attempted
        failed += bench.failed
        for problem in bench.problems:
            print(f"FAILED {workload}: {problem}", file=sys.stderr)
        error_rate = bench.failed / bench.attempted
        say(f"error_rate = {error_rate} ratio ({bench.failed} failed of {bench.attempted} ops)")
        for name, value in metrics.items():
            say(f"{name} = {value} {units[name]}")
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            result[key] = {"value": value, "unit": units[name]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
