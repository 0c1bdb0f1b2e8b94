"""Run one vacuumlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spacetime_ladder --seed 3 --seconds 30 --trace 0

The workload runs as a closed loop of back-to-back passes in this one
process, single-threaded, for ``--seconds``: a pass starts only when one
more pass, as long as the last, would end in time (the first always
runs).  Every pass is checked.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` untraced and traced passes alternate
and the metrics are the per-layer ones, plus the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(provenance, samples and, when traced, every span) is written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# workloads.WORKLOADS, named here because that module loads numpy
WORKLOAD_NAMES = ("spacetime_ladder", "spike_vacuum", "cli_studies")

# set-up as a user pays it: a fresh interpreter, `import vacuumlab`
# (numpy and scipy included) and the workload's static inputs
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]), sys.argv[5])")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def provenance(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "VACUUMLAB_WORKERS": os.environ.get("VACUUMLAB_WORKERS", "unset"),
    }


def time_setup(workload: str, seed: int, workdir: Path) -> list:
    samples = []
    for i in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup{i}"
        probe_dir.mkdir()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC),
                        workload, str(seed), str(probe_dir)],
                       cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


class Checker:
    """Verdicts, reference numbers and output identity of every pass."""

    def __init__(self, reference: dict | None, compare):
        self.reference = reference   # None: verdicts only (non-default seed)
        self.compare = compare
        self.attempted = 0
        self.failed = 0
        self.ref_rel_dev = 0.0
        self.ref_ok = True
        self.failures = []
        self._first_outputs = None

    def check(self, result) -> None:
        if self._first_outputs is None:
            self._first_outputs = result.outputs
        for call in result.calls:
            self.attempted += 1
            same = result.outputs.get(call.name) == self._first_outputs.get(call.name)
            if not (call.ok and same):
                self.failed += 1
                reason = call.detail if not call.ok else "outputs differ from pass 1"
                self.failures.append(f"{call.name}: {reason}")
        if self.reference is not None:
            dev, ok = self.compare(result.numbers, self.reference)
            self.ref_rel_dev = max(self.ref_rel_dev, dev)
            self.ref_ok = self.ref_ok and ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.ref_ok


def timed_pass(workload, inputs, checker):
    start = time.perf_counter()
    result = workload.run_pass(inputs)
    elapsed = time.perf_counter() - start
    checker.check(result)
    return elapsed, result


def summary(samples: list) -> str:
    """Median with its sample count, and the highest percentile that has
    at least ten samples beyond it."""
    text = f"median {statistics.median(samples):.4f} s (n={len(samples)})"
    for q in (99, 90):
        if len(samples) * (100 - q) / 100 >= 10:
            value = statistics.quantiles(samples, n=100)[q - 1]
            return text + f", p{q} {value:.4f} s"
    return text


def run(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("VACUUMLAB_WORKERS", None)
    if not (SRC / "vacuumlab" / "__init__.py").is_file():
        print(f"perfbench: no vacuumlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported only now: numpy reads the thread settings when it loads
    import vacuumlab
    import workloads
    from tracer import METRICS, Tracer
    if Path(vacuumlab.__file__).resolve().parent != (SRC / "vacuumlab").resolve():
        print(f"perfbench: imported vacuumlab from {vacuumlab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    reference = None
    if args.seed == workloads.DEFAULT_SEED or not workload.uses_seed:
        reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    checker = Checker(reference, workloads.compare)
    record = {"provenance": provenance(args)}
    print("provenance", json.dumps(record["provenance"], sort_keys=True))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_samples = [] if args.trace else time_setup(args.workload, args.seed,
                                                         workdir)
        inputs = workload.setup(args.seed, workdir)
        untraced, traced, layers = [], [], []
        tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            untraced.append(timed_pass(workload, inputs, checker)[0])
            if args.trace:
                tracer.begin_pass()
                with tracer:
                    elapsed, result = timed_pass(workload, inputs, checker)
                traced.append(elapsed)
                sample = tracer.pass_metrics()
                sample["cli.report_bytes"] = sum(
                    len(data) for files in result.outputs.values()
                    for data in files.values())
                layers.append(sample)
            now = time.perf_counter()
            if now + (now - start) > deadline:  # another round would overrun
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {name: statistics.median(s[name] for s in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(untraced))
        units = METRICS
        print(f"traced pass_s {summary(traced)}; untraced pass_s {summary(untraced)}")
        for name in units:
            print(f"  {name:<45} {metrics[name]:.6g} {units[name]}")
        record.update(traced_pass_s=traced, spans=tracer.spans)
    else:
        metrics = {"pass_s": statistics.median(untraced),
                   "setup_s": statistics.median(setup_samples),
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
        print(f"pass_s {summary(untraced)}")
        print(f"setup_s median {metrics['setup_s']:.4f} s over "
              f"{len(setup_samples)} fresh interpreters")
        print(f"peak_rss_mib {metrics['peak_rss_mib']:.1f} MiB")
    ratio = checker.failed / checker.attempted
    print(f"ops_failed_ratio {checker.failed}/{checker.attempted} = {ratio:.6g}")
    if reference is None:
        print(f"ref_rel_dev not checked: the reference is recorded at seed "
              f"{workloads.DEFAULT_SEED}; verdicts only")
    else:
        print(f"ref_rel_dev {checker.ref_rel_dev:.6g} (within rtol "
              f"{workloads.REF_RTOL:g} + atol {workloads.REF_ATOL:g}: "
              f"{'yes' if checker.ref_ok else 'NO'})")
    for failure in checker.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    record.update(untraced_pass_s=untraced, setup_s=setup_samples, metrics=metrics,
                  attempted=checker.attempted, failed=checker.failed,
                  ref_rel_dev=checker.ref_rel_dev, failures=checker.failures)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
