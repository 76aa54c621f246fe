"""The parabolica benchmark: closed-loop runs of the CLI behind a correctness gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it runs ``src/parabolica`` as it
stands, with nothing installed, and exits 2 when there is no such tree.  One
client starts one subprocess at a time (a closed loop).  Every timed CLI run
uses ``--threads 2`` on a config generated from the workload seed; the
workloads, their closed forms and the gate are in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` - median over fresh processes of the time from interpreter
  start to a validated ``RunConfig`` and a built ``ProblemSpec``;
* ``wall_s`` - median wall time of the CLI subprocess;
* ``peak_rss_mb`` - largest ``ru_maxrss`` of the CLI subprocesses;
* ``time_to_tol_s`` - ``setup_s + (wall_s - setup_s) * (stderr / tol)^2``,
  the Monte Carlo time to the workload's target standard error ``tol``.

Before timing, one untimed ``--threads 1`` run is made; every timed run must
exit 0, land within the workload's tolerance of the closed form and write
``summary.json`` (without ``environment``), ``steps.csv`` and
``controls.csv`` byte-identical to it.  ``failed`` counts the timed runs
that do not, so ``failed / attempted`` is the failed fraction.

``--trace 1`` alternates untraced CLI runs with runs of ``traced_cli.py``
and reports the per-layer metrics named in ``BENCHMARK.json``: span totals
(``.s``), self times (``.self_s``) and counts, medians over the traced runs.
Counts must repeat exactly between traced runs, and the layer self-times
plus the traced process's own set-up (its spawn to the start of
``cli.main``, on the same clock) must come within 10% of its wall time.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from workloads import THREADS, WORKLOADS, canonical_artifacts, gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Children still running past this point are killed, so a run ends within
# 180 s even when the program hangs.
BUDGET_S = 165.0
SETUP_SAMPLES = 3
MIN_TIMED_RUNS = 3
MIN_TRACED_PAIRS = 2
COVERAGE_TOLERANCE = 0.10
# Per-layer metrics read under another name than span.field.
ALIASES = {
    "paths.batch_bytes": "paths.euler_simulate.bytes",
    "bsde_full.history_bytes": "bsde_full.backward_solve_2bsde.bytes",
}
TIME_FIELDS = (".s", ".self_s")


class BenchError(Exception):
    """The benchmark itself could not run: no result is printed."""


@dataclass
class ChildResult:
    code: int
    start: float  # perf_counter at spawn; the clock is system-wide on Linux
    wall_s: float
    rss_mb: float
    ready_s: float
    line: str
    stderr: str


class Children:
    """Runs Python subprocesses one at a time, each killed at the run's deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        path = os.environ.get("PYTHONPATH")
        src = str(ROOT / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def run(self, argv: list, ready: bool = False) -> ChildResult:
        """Run ``python3 argv`` to its end.

        With ``ready`` the child's first stdout line is read and
        ``ready_s`` is the time from the start to that line.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        self.count += 1
        err_path = self.work / f"child{self.count}.stderr"
        line, ready_s = "", float("nan")
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE if ready else subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                if ready:
                    line = proc.stdout.readline().decode("utf-8", "replace").strip()
                    ready_s = time.perf_counter() - start
                    proc.stdout.read()
                    proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                wall_s = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace").strip()
        return ChildResult(code, start, wall_s, usage.ru_maxrss / 1024.0, ready_s, line, stderr)


def cli_argv(wl, config: Path, out: Path, threads: int) -> list:
    return ["-m", "parabolica", wl.subcommand, "--config", str(config),
            "--out", str(out), "--threads", str(threads)]


def measure_setup(children: Children, wl, config: Path, samples: int):
    """Set-up times of ``samples`` fresh processes, and the facts they print."""
    times, facts = [], None
    for _ in range(samples):
        r = children.run([str(HERE / "setup_probe.py"), str(config), wl.scheme], ready=True)
        if r.code != 0 or not r.line:
            raise BenchError(f"setup probe failed with exit {r.code}: {r.stderr}")
        facts = json.loads(r.line)
        times.append(r.ready_s)
    return times, facts


def last_level_cache():
    """(level, bytes) of the largest CPU cache, or None where sysfs does not say."""
    best = None
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            nbytes = int(size.rstrip("KMG")) * scale
            if best is None or level > best[0]:
                best = (level, nbytes)
    except (OSError, ValueError):
        return None
    return best


def print_machine(wl, facts: dict) -> None:
    llc = last_level_cache()
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "llc_bytes": llc[1] if llc else None,
        "llc_level": llc[0] if llc else None,
        **facts,
    }
    print("machine: " + json.dumps(machine, sort_keys=True))
    array_bytes = wl.array_bytes()
    ratio = f"{array_bytes / llc[1]:.2f}x LLC" if llc else "LLC unknown"
    print(f"arrays: {array_bytes} bytes computed from J, N, d ({ratio})")


def end_to_end(children: Children, wl, config: Path, seconds: float):
    # The reference run goes first: it also fills the bytecode and file
    # caches, which users do not pay on every run, before anything is timed.
    ref_out = children.work / "reference"
    r = children.run(cli_argv(wl, config, ref_out, 1))
    ref_failure = gate(r.code, ref_out, wl.exact, wl.tolerance_rel, None)
    if ref_failure:
        print(f"reference run (--threads 1) failed: {'; '.join(ref_failure)} {r.stderr}")
        reference, stderr = None, None
    else:
        reference = canonical_artifacts(ref_out)
        summary = json.loads(reference["summary.json"])
        stderr = summary["stderr"]
        print(f"reference run (--threads 1): value {summary['value']!r} stderr {stderr!r} "
              f"exact {wl.exact!r} tolerance {wl.tolerance_rel:.1%}")

    setups, facts = measure_setup(children, wl, config, SETUP_SAMPLES)
    print_machine(wl, facts)

    walls, rss, failed = [], [], 0
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop or len(walls) < MIN_TIMED_RUNS:
        out = children.work / f"run{len(walls)}"
        r = children.run(cli_argv(wl, config, out, THREADS))
        walls.append(r.wall_s)
        rss.append(r.rss_mb)
        reasons = ["reference run failed"] if ref_failure else gate(
            r.code, out, wl.exact, wl.tolerance_rel, reference)
        if reasons:
            failed += 1
            print(f"run {len(walls)} failed the gate: {'; '.join(reasons)} {r.stderr}")
        shutil.rmtree(out, ignore_errors=True)

    setup_s = statistics.median(setups)
    wall_s = statistics.median(walls)
    # Without a reference stderr the run has already failed; report the
    # measured time rather than no number.
    scale = (stderr / wl.tol) ** 2 if stderr is not None else 1.0
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        # The peak jumps between runs of one config in steps of tens of MB,
        # so the largest of the runs is what repeats, not the median.
        "peak_rss_mb": max(rss),
        "time_to_tol_s": setup_s + (wall_s - setup_s) * scale,
    }
    for name, samples in (("wall_s", walls), ("setup_s", setups), ("peak_rss_mb", rss)):
        print(f"{name}: {metrics[name]:.6g} (median {statistics.median(samples):.6g}, "
              f"max {max(samples):.6g}, n={len(samples)})")
    print(f"time_to_tol_s: {metrics['time_to_tol_s']:.6g} (tol {wl.tol:g})")
    print(f"failed_frac: {failed / len(walls):.3g} ({failed}/{len(walls)})")
    return len(walls), failed, [], metrics


def layer_totals(spans: list) -> dict:
    """Per span name: total and self time, call count, and summed attributes."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals = defaultdict(int)
    for i, (name, start, end, _, attrs) in enumerate(spans):
        totals[f"{name}.s"] += end - start
        totals[f"{name}.self_s"] += end - start - covered[i]
        totals[f"{name}.calls"] += 1
        for key, value in (attrs or {}).items():
            full = f"{name}.{key}"
            totals[full] = max(totals[full], value) if key.startswith("max_") else totals[full] + value
    return totals


def traced(children: Children, wl, config: Path, seconds: float, layer_names: list):
    _, facts = measure_setup(children, wl, config, 1)
    print_machine(wl, facts)

    plain_walls, traced_walls, coverages, runs, notes = [], [], [], [], []
    reference, failed, bytes_written = None, 0, 0
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop or len(runs) < MIN_TRACED_PAIRS:
        i = len(runs)
        out = children.work / f"plain{i}"
        r = children.run(cli_argv(wl, config, out, THREADS))
        plain_walls.append(r.wall_s)
        reasons = gate(r.code, out, wl.exact, wl.tolerance_rel, reference)
        if reference is None and not reasons:
            reference = canonical_artifacts(out)
        shutil.rmtree(out, ignore_errors=True)

        spans_path = children.work / f"spans{i}.json"
        out = children.work / f"traced{i}"
        t = children.run([str(HERE / "traced_cli.py"), str(spans_path)]
                         + cli_argv(wl, config, out, THREADS)[2:])
        traced_walls.append(t.wall_s)
        reasons += gate(t.code, out, wl.exact, wl.tolerance_rel, reference)
        if reasons:
            failed += 1
            print(f"pair {i + 1} failed the gate: {'; '.join(reasons)} {r.stderr} {t.stderr}")
            runs.append({})
            continue
        bytes_written = sum(p.stat().st_size for p in out.iterdir())
        spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        totals = layer_totals(spans)
        runs.append(totals)
        # This process's own set-up: from its spawn to the start of cli.main.
        own_setup = spans[0][1] - t.start
        self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
        coverages.append((self_sum + own_setup) / t.wall_s)
        shutil.rmtree(out, ignore_errors=True)

    good = [t for t in runs if t]
    counts = {k for t in good for k in t if not k.endswith(TIME_FIELDS)}
    for key in sorted(counts):
        if len({t.get(key, 0) for t in good}) > 1:
            notes.append(f"count {key} differs between traced runs")
    metrics = {}
    for name in layer_names:
        key = ALIASES.get(name, name)
        if not good:
            metrics[name] = 0
        elif key.endswith(TIME_FIELDS):
            metrics[name] = statistics.median(t.get(key, 0.0) for t in good)
        else:
            metrics[name] = good[0].get(key, 0)
    coverage = statistics.median(coverages) if coverages else 0.0
    worst = max(coverages, key=lambda c: abs(c - 1.0), default=0.0)
    metrics["cli.bytes_written"] = bytes_written
    metrics["bench.trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["bench.self_time_coverage"] = coverage
    if abs(worst - 1.0) > COVERAGE_TOLERANCE:
        notes.append(f"layer self-times plus set-up cover {worst:.1%} of a traced wall time")
    for name in layer_names:
        print(f"{name}: {metrics[name]!r}")
    print(f"traced runs: {len(good)}/{len(runs)}")
    return len(runs), failed, notes, {name: metrics[name] for name in layer_names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like on an error: the running child is killed and
    # waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "parabolica" / "cli.py").is_file():
        print(f"perfbench: no parabolica sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    wl = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(wl.config(args.seed), indent=2), encoding="utf-8")
        print(f"workload {wl.name}: {wl.subcommand} d={wl.d} N={wl.N} J={wl.J} "
              f"threads={THREADS} seed={args.seed} config seed={wl.config(args.seed)['seed']}")
        children = Children(work, time.monotonic() + BUDGET_S)
        if args.trace:
            attempted, failed, notes, values = traced(children, wl, config, args.seconds, list(units))
        else:
            attempted, failed, notes, values = end_to_end(children, wl, config, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for note in notes:
        print(f"check failed: {note}")
    result = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
