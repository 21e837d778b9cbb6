"""Run one sumdiam benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout: the package is imported from the
checkout's own ``src/``.  Set-up (import, seeded inputs, golden checks) is
repeated and timed, then the workload's fixed op list is run back to back,
closed loop with one client, as many whole passes as fit in ``--seconds``.
With ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics come from the traced ones.  Every op's output is checked.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

End-to-end times are speed-adjusted: a fixed pure-Python kernel is timed
before the first op, between ops whenever ``PROBE_INTERVAL_S`` has passed
since the last sample, and after the last op, and each op's time is scaled
by ``KERNEL_REF_S`` over the kernel's time around it.  Shared machines
change CPU speed by tens of percent over minutes; the kernel slows down
with the program, so the ratio keeps what the program does and drops what
the machine does.  Raw times are printed beside them.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
PROBE_INTERVAL_S = 0.1
KERNEL_ITERATIONS = 20_000
KERNEL_REF_S = 0.0025  # kernel time that defines one speed-adjusted second
MODULES = ("core", "families", "constructions", "search", "hypergraph", "cli")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def load_program() -> dict:
    """Import sumdiam afresh from the checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "sumdiam" or m.startswith("sumdiam.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"sumdiam.{name}") for name in MODULES}
    where = Path(sys.modules["sumdiam"].__file__).resolve().parent
    if where != SRC / "sumdiam":
        raise ImportError(f"sumdiam was imported from {where}, not from {SRC}")
    return mods


def _kernel() -> int:
    """Fixed pure-Python work: integer arithmetic only.

    It allocates no containers, so it never triggers the garbage collector,
    whose cost would depend on what the program has left on the heap.
    """
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += (i * 7919) % 1021 & 15
    return total


class SpeedProbe:
    """Times the kernel now and then, to turn raw seconds into adjusted ones."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self) -> int:
        """Time the kernel once; returns the sample's index."""
        t0 = perf_counter()
        _kernel()
        self.last = perf_counter()
        self.samples.append(self.last - t0)
        return len(self.samples) - 1

    def due(self) -> bool:
        return perf_counter() - self.last >= PROBE_INTERVAL_S

    def adjust(self, raw: float, mark: int) -> float:
        """Scale raw seconds by the kernel time in samples mark and mark + 1."""
        kernel = (self.samples[mark] + self.samples[mark + 1]) / 2
        return raw * KERNEL_REF_S / kernel


def run_pass(
    work: workloads.Workload, probe: SpeedProbe, tracer: tracing.Tracer | None = None
) -> dict:
    """Run the op list once, back to back, then check every output."""
    results = []
    raw = []
    marks = []
    mark = probe.sample()
    for index, op in enumerate(work.ops):
        if probe.due():
            mark = probe.sample()
        if tracer is not None:
            tracer.begin_op(index)
        t0 = perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # an op failure is data, not a harness crash
            result, error = None, exc
        raw.append(perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        marks.append(mark)
        results.append((result, error))
    # an op lies between its mark's sample and the next one
    probe.sample()
    latencies = [probe.adjust(t, m) for t, m in zip(raw, marks)]

    digests, problems, failed = [], [], 0
    for op, (result, error) in zip(work.ops, results):
        if error is not None:
            failed += 1
            message = f"{type(error).__name__}: {error}"
            digests.append(("error", message))
            if op.may_fail_with is None or op.may_fail_with not in str(error):
                problems.append(f"{op.name} raised {message}")
            continue
        ok, digest = op.check(result)
        digests.append(digest)
        if not ok:
            failed += 1
            problems.append(f"{op.name} gave an output that fails its check")
    return {
        "wall": sum(latencies),
        "raw_wall": sum(raw),
        "latencies": latencies,
        "digests": digests,
        "failed": failed,
        "problems": problems,
    }


def source_digest() -> str:
    """SHA-256 over the package sources, standing in for a commit outside git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sumdiam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sumdiam" / "__init__.py").is_file():
        print(f"error: no sumdiam package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        mark = probe.sample()
        t0 = perf_counter()
        mods = load_program()
        work = workloads.build(args.workload, mods, args.seed)
        elapsed = perf_counter() - t0
        probe.sample()
        setups.append((probe.adjust(elapsed, mark), elapsed))

    tracer = tracing.Tracer(mods) if args.trace else None
    untraced, traced, layers, problems = [], [], [], []
    reference = None

    def keep(runs: list, run: dict) -> None:
        # outputs are compared with the first pass and then dropped, so memory
        # does not grow with the number of passes
        nonlocal reference
        if reference is None:
            reference = run["digests"]
        elif run["digests"] != reference:
            problems.append("op outputs differ between passes")
        del run["digests"]
        problems.extend(run["problems"])
        runs.append(run)

    start = perf_counter()
    while True:
        keep(untraced, run_pass(work, probe))
        spent = untraced[-1]["raw_wall"]
        if tracer is not None:
            tracer.clear()
            tracer.install()
            try:
                keep(traced, run_pass(work, probe, tracer))
            finally:
                tracer.remove()
            layers.append(tracer.layer_metrics())
            spent += traced[-1]["raw_wall"]
        if perf_counter() - start + spent > args.seconds:
            break

    passes = untraced + traced
    attempted = len(passes) * len(work.ops)
    failed = sum(run["failed"] for run in passes)
    raw = {
        "setup_s": statistics.median(raw for _, raw in setups),
        "wall_s": statistics.median(run["raw_wall"] for run in untraced),
    }

    if tracer is None:
        # an op's latency is its median over the passes, which damps bursts
        # of machine noise that hit one pass
        latencies = [
            statistics.median(samples)
            for samples in zip(*(run["latencies"] for run in untraced))
        ]
        values = {
            "setup_s": statistics.median(adjusted for adjusted, _ in setups),
            "wall_s": statistics.median(run["wall"] for run in untraced),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "ops_ok_frac": 1 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        try:
            values = tracing.combine_passes(layers)
        except ValueError as exc:
            problems.append(str(exc))
            values = layers[-1]
        for key, want in work.expected.items():
            if values[key] != want:
                problems.append(f"{key} is {values[key]}, golden value {want}")
        # spans hold raw seconds, so shares are taken against the raw traced wall
        traced_raw = statistics.median(run["raw_wall"] for run in traced)
        values["trace.wall_s"] = traced_raw
        values["trace.overhead_frac"] = (
            statistics.median(run["wall"] for run in traced)
            / statistics.median(run["wall"] for run in untraced)
            - 1
        )
        values["core.is_valid_labeling.busy_frac"] = (
            values["core.is_valid_labeling.busy_s"] / traced_raw
        )
        metrics = {k: {"value": v, "unit": tracing.metric_unit(k)} for k, v in values.items()}
        tracer.write(OUT / f"spans-{args.workload}.json")

    for problem in problems:
        print(f"problem: {problem}")
    for key, metric in metrics.items():
        print(f"{key} {metric['value']} {metric['unit']}")
    for key, value in raw.items():
        print(f"raw {key} {value} s")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": work.jobs,
        "trace": args.trace,
        "ops_per_pass": len(work.ops),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "kernel_median_s": statistics.median(probe.samples),
        "kernel_ref_s": KERNEL_REF_S,
        "raw": raw,
    }
    print("stamp " + json.dumps(stamp))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, stamp=stamp, problems=problems)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
