"""bicross benchmark: one closed-loop client, library threads=1.

    python3 bench/run.py --workload fixed-k-growth --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55

Each run sets up its instances from --seed (five times, reporting the
median set-up time), then sends requests one after another, in whole
cycles of the workload's request mix, until --seconds have passed and at
least 100 requests are done.  Every answer and witness is checked against
a reference as soon as the request returns, outside its latency and the
phase's elapsed time; a wrong answer aborts the run with exit code 1 and
no result line.  A request that raises or exits non-zero counts as failed.

With --trace 0 the result carries the end-to-end metrics.  With --trace 1
each cycle runs twice for half of --seconds, once untraced and once with
spans around each layer (see tracing.py); the result carries per-layer
metrics and the tracing overhead.  The traced run also runs two probes
for known defects (see Bench.probe).  baseline/ holds both outputs of
each workload at the commit that added the benchmark.

The last line of stdout is the result object; the line before it records
the environment and per-request-type latencies.  --workload all runs every
workload, untraced and traced, in child processes and prints one result
with workload-prefixed metric names.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

import checker
import instances

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
WORKLOADS = ("fixed-k-growth", "sparse-cli")
MIN_REQUESTS = 100
SETUP_REPEATS = 5
POOL_CYCLES = 40  # request cycles generated at set-up; the loop wraps around
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bicross; "
    "print(time.perf_counter() - t)"
)


def _pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_ENV, BLAS_THREADS))
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


class Bench:
    """One workload's instances, request execution and checks."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        import bicross
        import bicross.cli
        import bicross.solver

        self.bicross = bicross
        self.cli = bicross.cli
        self.solver = bicross.solver
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.out_path = workdir / "report.json"
        self.sink = StringIO()
        self.cycles: list[list] = []

    # -- set-up -------------------------------------------------------------

    def set_up(self) -> float:
        """Import (timed in a fresh interpreter), generate, warm up; seconds."""
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=_pinned_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        import_s = float(child.stdout.strip())
        gen_start = perf_counter()
        self.cycles = self._generate()
        # A cycle lists its cheapest requests first; two of them fill the
        # lazy state of the decide path without timing a long search.
        for req in self.cycles[0][:2]:
            ok, ans, _ = self.execute(req)
            if not ok:
                raise RuntimeError(f"warm-up request {req.label} failed: {ans}")
            checker.check(req, ans)
        return import_s + perf_counter() - gen_start

    def _generate(self) -> list[list]:
        rng = random.Random(self.seed)
        if self.workload == "fixed-k-growth":
            cycles = [instances.growth_cycle(rng) for _ in range(POOL_CYCLES)]
        else:
            cycles = instances.sparse_cycles(rng, self.workdir)
        for cycle in cycles:
            for req in cycle:
                if req.via == "api":
                    req.graph = self.bicross.build_graph(*req.triple)
        return cycles

    # -- requests -------------------------------------------------------------

    def execute(self, req) -> tuple[bool, object, float]:
        """Run one request: (True, answer) or (False, error text), and its
        wall time in seconds."""
        if req.via == "api":
            return self._api(req, threads=1)
        return self._cli(req)

    def _api(self, req, threads: int) -> tuple[bool, object, float]:
        solver = self.solver
        start = perf_counter()
        try:
            if req.op == "decide":
                report = solver.bcr_decide(req.graph, req.k, threads=threads)
            else:
                report = solver.bcr_exact(req.graph, req.k, threads=threads)
        except Exception as err:  # counted as a failed request
            return False, f"{type(err).__name__}: {err}", perf_counter() - start
        latency = perf_counter() - start
        return True, checker.answer_of_report(report), latency

    def _cli(self, req) -> tuple[bool, object, float]:
        argv = [req.op, req.path, "--format", req.fmt, "--json", str(self.out_path)]
        if req.op == "exact":
            argv += ["--kmax", str(req.k), "--threads", "1"]
        elif req.op == "decide":
            argv += ["--k", str(req.k), "--threads", "1"]
        else:
            argv += ["--k", str(req.k)]
        self.out_path.unlink(missing_ok=True)
        self.sink.seek(0)
        self.sink.truncate()
        start = perf_counter()
        try:
            with redirect_stdout(self.sink), redirect_stderr(self.sink):
                rc = self.cli.main(argv)
        except SystemExit as err:
            rc = err.code
        except Exception as err:  # counted as a failed request
            return False, f"{type(err).__name__}: {err}", perf_counter() - start
        latency = perf_counter() - start
        if rc != 0:
            return False, f"exit code {rc}: {self.sink.getvalue().strip()[-200:]}", latency
        doc = json.loads(self.out_path.read_text())
        return True, checker.answer_of_document(doc), latency

    def _run_cycle(self, c: int, phase: Phase, tracer=None) -> None:
        if tracer is not None:
            tracer.install()
        try:
            for req in self.cycles[c % len(self.cycles)]:
                ok, ans, latency = self.execute(req)
                if tracer is not None:
                    tracer.close_request()
                phase.record(req, ok, ans, latency)
        finally:
            if tracer is not None:
                tracer.uninstall()

    def run_phase(self, seconds: float, tracer=None) -> tuple[Phase, Phase]:
        """Whole request cycles until seconds and MIN_REQUESTS are reached.

        With a tracer every cycle runs twice, untraced and traced, in turns
        of which goes first (the second pass finds the graphs' cached
        adjacency filled), so both phases see the same requests under the
        same conditions.  Returns the untraced and the traced phase.
        """
        plain, traced = Phase(), Phase()
        start = perf_counter()
        c = 0
        while perf_counter() - start < seconds or len(plain.latencies) < MIN_REQUESTS:
            passes = [(plain, None)] if tracer is None else [(plain, None), (traced, tracer)]
            if c % 2:
                passes.reverse()
            for phase, t in passes:
                self._run_cycle(c, phase, t)
            c += 1
        plain.elapsed = perf_counter() - start - plain.check_s - traced.check_s
        plain.cycles = traced.cycles = c
        return plain, traced

    # -- known-defect probes (traced run only) --------------------------------

    def probe(self, phase: Phase) -> dict[str, float]:
        """Run the known-defect probes into phase; returns their counts.

        Both probes run in every traced run, whatever the workload, so the
        per-layer metrics they feed are comparable across workloads.
        """
        # pairs_evaluated depends on the thread count: the pair search
        # evaluates a whole wave of chunks before its early exit.
        req = instances.thread_probe()
        req.graph = self.bicross.build_graph(*req.triple)
        metrics = {}
        for threads in (1, 2):
            ok, ans, latency = self._api(req, threads)
            phase.record(req, ok, ans, latency)
            metrics[f"solver.probe_pairs_threads{threads}"] = ans["pairs_evaluated"] if ok else 0
        # decide hands the whole budget to the first component that reaches
        # enumeration; past k ~ 127 the gap budget 4k + a - 1 exceeds
        # max_gap_budget and the CLI exits with code 3.
        req = instances.budget_probe(self.workdir)
        phase.record(req, *self._cli(req))
        return metrics


class Phase:
    """Outcomes of one phase of requests, checked as they complete.

    Answers are checked right away and not kept, so the heap the garbage
    collector walks stays the same size for the whole run; the time spent
    checking is kept apart and left out of the phase's elapsed time.
    """

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.pairs_evaluated = 0
        self.pairs_skipped = 0
        self.check_s = 0.0
        self.elapsed = 0.0
        self.cycles = 0

    def record(self, req, ok: bool, ans, latency: float) -> None:
        self.labels.append(f"{req.op} {req.label}")
        self.latencies.append(latency)
        if not ok:
            self.failures.append(ans)
            return
        start = perf_counter()
        checker.check(req, ans)
        self.check_s += perf_counter() - start
        self.pairs_evaluated += ans.get("pairs_evaluated", 0)
        self.pairs_skipped += ans.get("pruned", 0)

    def by_label(self) -> dict[str, dict[str, float]]:
        groups: dict[str, list[float]] = {}
        for label, latency in zip(self.labels, self.latencies):
            groups.setdefault(label, []).append(latency)
        return {
            label: {"n": len(v), "median_s": statistics.median(v)}
            for label, v in sorted(groups.items())
        }


def _is_resource_error(failure: str) -> bool:
    return failure.startswith(("ResourceLimitError", "exit code 3"))


def _quantiles(values: list[float]) -> tuple[float, float]:
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def _environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "library_threads": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_workload(args) -> int:
    workdir = BENCH_DIR / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        bench = Bench(args.workload, args.seed, workdir)
        setups = [bench.set_up() for _ in range(SETUP_REPEATS)]
        # Keep the instance pool out of the collector's full passes: a
        # process that solves one graph has no such heap to walk.
        gc.collect()
        gc.freeze()
        info = {"env": _environment(args), "setup_s_each": setups}
        if not args.trace:
            phase, _ = bench.run_phase(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            attempted, failed = len(phase.latencies), len(phase.failures)
            p50, p90 = _quantiles(phase.latencies)
            metrics = {
                "latency_p50_s": p50,
                "latency_p90_s": p90,
                "throughput_rps": (attempted - failed) / phase.elapsed,
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setups),
            }
            info.update(samples=attempted, cycles=phase.cycles, requests=phase.by_label())
        else:
            import tracing

            tracer = tracing.Tracer()
            plain, traced = bench.run_phase(args.seconds / 2, tracer)
            attempted = len(plain.latencies) + len(traced.latencies)
            failed = len(plain.failures) + len(traced.failures)
            n = len(traced.latencies)
            metrics = tracer.metrics()
            metrics["solver.pairs_evaluated"] = traced.pairs_evaluated / n
            metrics["solver.pairs_skipped"] = traced.pairs_skipped / n
            metrics["trace.overhead_frac"] = sum(traced.latencies) / sum(plain.latencies) - 1
            # The probes count in the limits metrics, not in the samples.
            metrics.update(bench.probe(traced))
            metrics["limits.resource_errors"] = sum(map(_is_resource_error, traced.failures))
            metrics["limits.failed_frac"] = len(traced.failures) / len(traced.latencies)
            info.update(
                samples=n,
                cycles=traced.cycles,
                requests=traced.by_label(),
                breakdown=tracer.breakdown(),
            )
    except checker.CheckError as err:
        print(f"error: wrong answer: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = _declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own interpreter."""
    metrics = {}
    attempted = failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            child = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if child.returncode != 0:
                sys.stderr.write(child.stderr)
                return child.returncode
            result = json.loads(child.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                metrics[f"{workload}.{name}"] = m
                print(f"{workload:15} {name:34} {m['value']:.6g} {m['unit']}")
    print(json.dumps(
        {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC_DIR / "bicross" / "__init__.py").is_file():
        print(f"error: bicross sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Pin BLAS threads before numpy is first imported.
    os.environ.update(dict.fromkeys(BLAS_ENV, BLAS_THREADS))
    sys.path.insert(0, str(SRC_DIR))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
