"""stonelab benchmark: one workload, one process, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Ops come from ``workloads.build`` and are verified by
``verify`` outside the timed region.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print every metric by name and unit and the run metadata.
A full record, and with ``--trace 1`` every span, is written under
``.bench_out/``.

``--trace 0`` runs whole passes of the op list until S seconds of op time
(answer checks excluded) have gone by, so every run measures the same op
mix whatever the speed of the host.  ``--trace 1`` runs one untraced pass and one
traced pass of the op list and reports the per-layer metrics; counts are
totals over the traced pass, so they repeat exactly for a given seed.
``fail_ratio`` is 0 whenever the code is correct, so it is carried by
``attempted`` and ``failed`` and printed on its own line rather than
listed among the bounded metrics.

``--record-reference`` rewrites ``bench/reference.json`` from the current
code: the answers for seeds 0-9 of both profiles, and the answers and
search nodes of every batch of the solve-random library.
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
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
REFERENCE_SEEDS = range(10)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if not args.record_reference and args.workload is None:
        p.error("--workload is required")
    return args


# ------------------------------------------------------------------ set-up

def setup(workload: str, seed: int, profile: str, workdir: str, checker) -> tuple:
    """Generate the inputs and warm up: run and check the tiny profile's ops once.

    Returns the op list and the (attempted, failed) counts of the warm-up.
    """
    import workloads

    ops = workloads.build(workload, seed, profile, workdir)
    warm_dir = os.path.join(workdir, "warm")
    os.makedirs(warm_dir, exist_ok=True)
    warm = workloads.build(workload, 0, "tiny", warm_dir)
    failed = sum(not run_op(op, checker, Counter())[1] for op in warm)
    return ops, len(warm), failed


def measure_setup(args) -> float:
    """Median wall time from launching a fresh interpreter to its first op."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--profile", args.profile, "--setup-probe"]
        start = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


def measure_import() -> float:
    """Median cost of a fresh ``import stonelab.cli`` over a bare interpreter."""
    pre = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})"
    diffs = []
    for _ in range(IMPORT_REPEATS):
        spans = []
        for code in (pre, pre + "; import stonelab.cli"):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)
            spans.append(time.perf_counter() - start)
        diffs.append(spans[1] - spans[0])
    return statistics.median(diffs)


# ------------------------------------------------------------------ checks

class Checker:
    """Runs each op's independent checks and compares with the reference.

    An op with no reference answer is compared with its first answer in
    this run, unless it ``needs_reference``: then it fails, except while
    the reference is being recorded.
    """

    def __init__(self, reference: dict, recording: bool = False):
        self.reference = reference
        self.recording = recording
        self.answers: dict = {}  # op key -> answer digest seen in this run
        self.verified: set = set()  # (op key, result fingerprint)
        self.failures: list[str] = []

    def check(self, op, result, counters) -> bool:
        from verify import CheckError, digest

        fp = op.fingerprint(result) if op.fingerprint else None
        if fp is not None and (op.key, fp) in self.verified:
            return True
        try:
            answer = digest(op.check(result, counters))
            expected = self.reference.get(op.key)
            if expected is None and op.needs_reference and not self.recording:
                raise CheckError("no reference answer recorded for this op")
            if expected is None:
                expected = self.answers.get(op.key)
            if expected is not None and expected != answer:
                raise CheckError("answer differs from the reference")
        except Exception as exc:  # a malformed answer is a failed op, not a crash
            self.failures.append(f"{op.group} [{op.key[:60]}]: {exc!r}")
            return False
        self.answers[op.key] = answer
        if fp is not None:
            self.verified.add((op.key, fp))
        return True

    def fail(self, op, exc) -> None:
        self.failures.append(f"{op.group} [{op.key[:60]}]: raised {exc!r}")


def run_op(op, checker, counters):
    """Time one op; returns (seconds, ok)."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        elapsed = time.perf_counter() - start
        checker.fail(op, exc)
        return elapsed, False
    elapsed = time.perf_counter() - start
    return elapsed, checker.check(op, result, counters)


# ---------------------------------------------------------------- measures

def tail(latencies):
    """Highest percentile with at least ten ops beyond it: (value, pct)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(ops, seconds, checker):
    latencies = []
    busy, failed, passes = 0.0, 0, 0
    while busy < seconds:  # whole passes only, so the op mix never changes
        times, pass_failed, _ = one_pass(ops, checker)
        latencies += times
        busy += sum(times)
        failed += pass_failed
        passes += 1
    value, pct = tail(latencies)
    metrics = {
        "ops_per_s": ((len(latencies) - failed) / busy, "ops/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "passes": passes,
        "latency_tail_percentile": round(pct, 2),
        "latency_samples": len(latencies),
        "fail_ratio": failed / len(latencies),
    }
    return len(latencies), failed, metrics, notes


def one_pass(ops, checker, tracer=None):
    """Run each op once; returns (op times, failed ops, counters)."""
    counters = Counter()
    times, failed = [], 0
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
        elapsed, ok = run_op(op, checker, counters)
        times.append(elapsed)
        failed += not ok
    return times, failed, counters


def per_layer(ops, checker):
    from tracer import Tracer
    import layers

    plain, plain_failed, _ = one_pass(ops, checker)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_failed, op_counters = one_pass(ops, checker, tracer)
    finally:
        tracer.uninstall()
    plain_s, traced_s = sum(plain), sum(traced)
    metrics = layers.metrics(tracer.spans, tracer.counters, op_counters)
    metrics["cli.import_s"] = (measure_import(), "s")
    metrics["trace.overhead_ratio"] = (plain_s / traced_s, "ratio")
    notes = {"spans": len(tracer.spans), "pass_s": plain_s, "traced_pass_s": traced_s}
    return 2 * len(ops), plain_failed + traced_failed, metrics, notes, tracer.spans


# ---------------------------------------------------------------- metadata

def run_metadata() -> dict:
    import hashlib

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stonelab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


# -------------------------------------------------------------------- main

def record_reference() -> int:
    import workloads

    answers, costs = {}, {}
    checker = Checker(answers, recording=True)

    def record(op, result) -> bool:
        if op.key not in answers:
            checker.check(op, result, Counter())
            answers.update(checker.answers)
        return not checker.failures

    for profile in ("tiny", "full"):
        for op in map(workloads.random_solve_op,
                      workloads.random_library(workloads.PROFILES["solve-random"][profile])):
            result = op.run()
            costs[op.key] = workloads.search_nodes(result)
            if not record(op, result):
                break
        print(f"solve-random {profile} library: {len(costs)} batches", flush=True)
    for workload in workloads.WORKLOADS:
        for profile in ("tiny", "full"):
            for seed in REFERENCE_SEEDS:
                with tempfile.TemporaryDirectory(dir=OUT) as workdir:
                    for op in workloads.build(workload, seed, profile, workdir):
                        if op.key not in answers:
                            record(op, op.run())
            print(f"{workload} {profile}: {len(answers)} reference answers", flush=True)
    if checker.failures:
        print("\n".join(checker.failures), file=sys.stderr)
        return 1
    workloads.REFERENCE.write_text(
        json.dumps({"answers": answers, "costs": costs}, indent=0, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stonelab" / "__init__.py").is_file():
        print(f"error: no stonelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, args.profile, workdir,
                  Checker(workloads.load_reference()["answers"]))
            print(repr(time.time()))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    import workloads

    setup_s = measure_setup(args) if not args.trace else None
    checker = Checker(workloads.load_reference()["answers"])
    ops, warm_attempted, warm_failed = setup(args.workload, args.seed, args.profile,
                                             workdir, checker)
    spans = None
    if args.trace:
        attempted, failed, metrics, notes, spans = per_layer(ops, checker)
    else:
        attempted, failed, metrics, notes = end_to_end(ops, args.seconds, checker)
        metrics["setup_s"] = (setup_s, "s")
    # Warm-up answers are checked too, so a wrong one makes the run incorrect.
    attempted += warm_attempted
    failed += warm_failed

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "profile": args.profile, "ops_in_pass": len(ops),
              "meta": run_metadata(), "attempted": attempted, "failed": failed,
              "failures": checker.failures[:20], "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    meta = record["meta"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} profile={args.profile} "
          f"python={meta['python']} nproc={meta['nproc']} cpu={meta['cpu_model']!r} "
          f"git={meta['git_sha']} src={meta['src_sha256'][:12]}")
    for failure in checker.failures[:5]:
        print(f"# FAILED {failure}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    if not args.trace:
        print(f"# {notes['passes']} passes of {len(ops)} ops; latency_tail_s is "
              f"p{notes['latency_tail_percentile']} of {notes['latency_samples']} ops")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
