"""polyposet benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload census-all-tree --seed 1 --seconds 26 --trace 0

Runs whole passes of the workload through polyposet's public API from one
caller (a closed loop; the only parallelism is the library's own default
pool of os.cpu_count() workers), checks every result, and prints a summary
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: wall_s and cpu_s (the
median pass), setup_s (median time from a fresh interpreter to ready, over
interpreters started between the passes by a launcher process of their own)
and peak_rss_mb (this process and its pool workers, not the probes).
fail_ratio is failed / attempted.
With --trace 1 untraced and traced passes alternate; the metrics are the
per-layer ones from the traced passes plus the tracing overhead (spans per
pass times the measured cost of one span), and the spans are written to
perfbench/out/.

A new pass starts only while the longest pass so far still fits in the
remaining time, so a run takes about --seconds, or one pass if that is
longer.  The seed fixes only the order in which pullback visits dissections;
every workload is exhaustive.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYER_METRICS, Tracer, installed, layer_metrics, span_cost

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("census-all-tree", "census-blockwise", "verify", "pullback")
SETUP_PROBES = 8


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe-launcher", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _missing_inputs() -> list[str]:
    needed = [ROOT / "src" / "polyposet" / "__init__.py",
              ROOT / "tests" / "fixtures"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD read from .git directly: the checkout may sit inside some other
    repository, where asking git would name the wrong commit."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "cpu_model": _cpu_model(),
            "loadavg_start": list(os.getloadavg()),
            "git_commit": _git_commit(),
            "seed": seed}


def probe_setup(workload: str, count: int) -> list[float]:
    """Times from starting a fresh interpreter until it reports that
    polyposet is imported and the workload's expected values are built.
    The interpreter skips `site` (-S): polyposet needs only the standard
    library, and the third-party .pth hooks that `site` runs take longer,
    and vary more, than the setup being measured."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-S", str(Path(__file__).resolve()),
                               "--workload", workload, "--setup-probe"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - start)
            probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"setup probe for {workload} failed")
    return times


def serve_probes(workload: str) -> int:
    """The probe launcher: for each count read from stdin, that many setup
    probes, their times written back as one JSON line."""
    for line in sys.stdin:
        print(json.dumps(probe_setup(workload, int(line))), flush=True)
    return 0


class SetupProber:
    """Setup probes started by a launcher process of their own.  The
    launcher is reaped only after peak_rss_mb is read, so the probe
    interpreters never count towards this process's reaped children."""

    def __init__(self, workload: str):
        self._launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--probe-launcher"],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def probe(self, count: int) -> list[float]:
        self._launcher.stdin.write(f"{count}\n")
        self._launcher.stdin.flush()
        line = self._launcher.stdout.readline()
        if not line:
            raise RuntimeError("setup probe launcher failed")
        return json.loads(line)

    def close(self) -> None:
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()
        self._launcher.stdout.close()


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclasses.dataclass(frozen=True)
class Pass:
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int


def one_pass(workload, seed: int) -> Pass:
    cpu0, wall0 = _cpu_now(), time.perf_counter()
    try:
        outcomes = workload.run_pass(seed)
    except Exception:
        traceback.print_exc()
        outcomes = []
    wall = time.perf_counter() - wall0
    cpu = _cpu_now() - cpu0
    return Pass(wall, cpu, *workload.score(outcomes))


def _show(label: str, p: Pass) -> None:
    print(f"{label}: wall_s={p.wall_s:.4f} cpu_s={p.cpu_s:.4f} "
          f"ops={p.attempted} failed={p.failed}", flush=True)


def measure(workload, seed: int, seconds: float, prober=None, tracer=None):
    """Passes until the next would overrun.  With a prober, setup probes
    run before the first pass and after each one, so that setup_s samples
    the same stretch of time as the passes.  With a tracer, each cycle is
    an untraced pass then a traced one.  Returns (plain, traced, layers,
    setup)."""
    plain, traced, layers, setup = [], [], [], []
    start = time.perf_counter()
    if prober is not None:
        setup += prober.probe(SETUP_PROBES)
    longest = 0.0
    while True:
        cycle_start = time.perf_counter()
        plain.append(one_pass(workload, seed))
        _show(f"pass {len(plain)}", plain[-1])
        if prober is not None:
            setup += prober.probe(SETUP_PROBES)
        if tracer is not None:
            tracer.run = f"{workload.name}/seed{seed}/pass{len(traced) + 1}"
            mark = len(tracer.spans)
            with installed(tracer):
                traced.append(one_pass(workload, seed))
            _show(f"traced pass {len(traced)}", traced[-1])
            layers.append(layer_metrics(tracer.spans[mark:]))
        now = time.perf_counter()
        longest = max(longest, now - cycle_start)
        if now - start + longest > seconds:
            return plain, traced, layers, setup


def main(argv=None) -> int:
    args = _parse(argv)
    missing = _missing_inputs()
    if missing:
        print(f"error: benchmark inputs missing from {ROOT}: "
              + ", ".join(missing), file=sys.stderr)
        return 2
    if args.probe_launcher:
        return serve_probes(args.workload)
    import workloads
    workload = workloads.BUILDERS[args.workload]()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    context = run_context(args.seed)
    print("context " + json.dumps(context), flush=True)
    if args.trace:
        tracer = Tracer()
        plain, traced, layers, _ = measure(workload, args.seed, args.seconds,
                                           tracer=tracer)
    else:
        prober = SetupProber(args.workload)
        try:
            plain, traced, layers, setup = measure(workload, args.seed,
                                                   args.seconds, prober)
            peak_mb = peak_rss_mb()
        finally:
            prober.close()
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wall_s = statistics.median(p.wall_s for p in plain)
    print(f"workload {args.workload}: {len(plain)} passes of "
          f"{workload.expected_ops} ops, fail_ratio {failed}/{attempted} = "
          f"{failed / attempted:.6g}")

    if not args.trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "cpu_s": (statistics.median(p.cpu_s for p in plain), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    else:
        metrics = {name: (statistics.median(layer[name] for layer in layers),
                          unit)
                   for name, (unit, _better) in LAYER_METRICS.items()
                   if name != "trace.overhead_s"}
        spans = len(tracer.spans) / len(traced)
        overhead = spans * span_cost()
        metrics["trace.overhead_s"] = (overhead, "s")
        paired = statistics.median(p.wall_s for p in traced) - wall_s
        workloads.OUT.mkdir(exist_ok=True)
        spans_path = workloads.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"tracing overhead {overhead:.4f} s per pass: {spans:.0f} spans "
              f"times the cost of one; traced minus untraced wall_s "
              f"{paired:+.4f} s over {len(traced)} pair(s), which host "
              f"drift dominates; spans in {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6f} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
