#!/usr/bin/env python3
"""perronkit benchmark: closed-loop solves of seeded tensors, timed from outside.

    python3 bench/run.py --workload gen-large --seed 1 --seconds 30 --trace 0

One caller, no threads, library defaults.  Each unit of work re-reads the
workload's ``.tns`` files with ``read_tensor`` and calls
``positive_perron_vector`` on each, until ``--seconds`` have passed.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run that alternates traced and untraced units.  Every output
is checked by ``oracle.py``; any failure makes the exit code 1.  The last
stdout line is the JSON result; the line before it is the run's context.
Without perronkit sources under ``src/`` the run exits 2 and prints no
result.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from inputs import DEN, EXAMPLE_FILE, RT, SHAPES, STRONG, WORKLOADS, instance_specs
from spans import READ, ROOT, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
WORK = REPO / ".bench_build" / "perronkit-bench"
SCHEMA = REPO / "schemas" / "cli-output.schema.json"

DEFAULT_SEED = 1
HOLDOUT_SEED = 2  # kept out of tuning; confirm claimed gains on it
IMPORT_ROUNDS = 5
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def ensure_inputs(workload: str, seed: int, size: str) -> Path:
    """Generate the workload's files in a child process, once per recipe.

    The folder name carries a digest of the generator recipes, so a changed
    workload never reuses stale files.
    """
    recipe = json.dumps([RT, DEN, instance_specs(workload, seed, size)])
    out = WORK / size / f"{workload}-{seed}-{zlib.crc32(recipe.encode()):08x}"
    if not ((out / "manifest.json").is_file() and (out / EXAMPLE_FILE).is_file()):
        cmd = [sys.executable, str(BENCH / "inputs.py"), workload, str(seed), size, str(out)]
        subprocess.run(cmd, env=child_env(), cwd=REPO, check=True, timeout=900)
    return out


class Run:
    """Solves one workload's instances unit by unit and keeps what the checks need."""

    def __init__(self, instances: list[dict], folder: Path):
        from perronkit import FixedPointConfig, NotStronglyNonnegative, positive_perron_vector
        from perronkit import read_tensor

        self.instances = instances
        self.paths = [folder / inst["file"] for inst in instances]
        self._solve = positive_perron_vector
        self._read = read_tensor
        self._rejected = NotStronglyNonnegative
        self._gamma = FixedPointConfig().gamma
        self.first: list[tuple | None] = [None] * len(instances)
        self.solves_of = [0] * len(instances)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def unit(self, tracer: Tracer | None = None) -> tuple[float, list[float], list[tuple[int, int, bool]]]:
        """Read and solve every instance once.

        Returns the total read time, each solve's time and, per solve, the
        fixed-point iterations, gamma restarts and whether it was strong.
        """
        read_total = 0.0
        solve_times = []
        fp = []
        for k, path in enumerate(self.paths):
            if tracer is not None:
                tracer.solve += 1
            gc.collect()
            self.attempted += 1
            t0 = perf_counter()
            A = tracer.call(READ, self._read, path) if tracer else self._read(path)
            t1 = perf_counter()
            try:
                res = tracer.call(ROOT, self._solve, A) if tracer else self._solve(A)
            except self._rejected as exc:
                t2 = perf_counter()
                cls = exc.classification
                got = (cls.outcome.value, None, cls.lam, cls.partition.blocks, cls.partition.genuine)
                fp.append((0, 0, False))
            except Exception as exc:  # a solver failure is a benchmark result, not a crash
                self.failed += 1
                self.problems.append(f"{self.instances[k]['name']}: {type(exc).__name__}: {exc}")
                continue
            else:
                t2 = perf_counter()
                P = res.classification.partition
                got = ("strong", res.z.tobytes(), res.lam, P.blocks, P.genuine)
                fp.append((res.iterations, round(math.log10(self._gamma / res.gamma)), True))
            finally:
                del A  # keep one tensor alive at a time, as a caller solving files in turn would
            read_total += t1 - t0
            solve_times.append(t2 - t1)
            self.solves_of[k] += 1
            if self.first[k] is None:
                self.first[k] = got
            elif got != self.first[k]:
                self.failed += 1
                self.problems.append(f"{self.instances[k]['name']}: result differs between repeats")
        return read_total, solve_times, fp

    def check(self) -> None:
        """Run the oracle once per instance; a failing instance fails all its solves."""
        for k, inst in enumerate(self.instances):
            if self.first[k] is None:
                continue
            outcome, zbytes, lam, blocks, genuine = self.first[k]
            problems = oracle.check_outcome(inst["kind"], outcome)
            problems += oracle.check_partition(blocks, genuine, inst["block_sizes"], inst["kind"])
            if outcome == STRONG:
                T = oracle.load_dense(self.paths[k])
                problems += oracle.check_strong(T, np.frombuffer(zbytes), lam)
            if problems:
                self.failed += self.solves_of[k]
                self.problems += [f"{inst['name']}: {p}" for p in problems]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples above it.  With 2 * TAIL_BEYOND samples or fewer that
    percentile would sit at or below the median, so the maximum stands in."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def cli_call(path: Path) -> tuple[float, int, str]:
    """Wall time, exit code and stdout of a child `perronkit perron FILE`."""
    cmd = [sys.executable, "-m", "perronkit.cli", "perron", str(path)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=REPO, capture_output=True, text=True, timeout=170)
    return perf_counter() - t0, proc.returncode, proc.stdout


def cli_import_s() -> float:
    times = []
    for _ in range(IMPORT_ROUNDS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import perronkit.cli"], env=child_env(), cwd=REPO,
                       check=True, timeout=170)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def cli_picks(workload: str, instances: list[dict], folder: Path) -> list[tuple[str, str, Path]]:
    """(name, kind, file) of the CLI calls that follow each untraced unit.

    Every workload calls the CLI on the bundled example.  `small-mixed` adds
    one strong and one rejected generated instance, and calls each file
    after every unit, so that each run holds as many calls of one file as of
    another and their median does not depend on where the run stopped.
    Elsewhere one CLI solve
    of the workload's instance would cost as much as the timed solve it
    follows, and halve the solves a run measures.
    """
    picks = [("four-blocks", STRONG, folder / EXAMPLE_FILE)]
    if workload == "small-mixed":
        strong = [i for i in instances if i["kind"] == STRONG and i["seed"] is not None]
        rejected = [i for i in instances if i["kind"] != STRONG]
        picks += [(i["name"], i["kind"], folder / i["file"]) for i in strong[:1] + rejected[:1]]
    return picks


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "perronkit").glob("*.py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SHAPES), default="full",
                    help="tiny runs the same workloads at self-test size")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "perronkit" / "__init__.py").is_file():
        print(f"bench: no perronkit sources in {SRC}", file=sys.stderr)
        return 2

    inherited_threads = os.environ.pop("PERRONKIT_THREADS", None)
    sys.path.insert(0, str(SRC))
    import perronkit

    if not Path(perronkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported perronkit from {perronkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    folder = ensure_inputs(args.workload, args.seed, args.size)
    instances = json.loads((folder / "manifest.json").read_text())
    run = Run(instances, folder)
    traced = args.trace == 1

    # Untimed warm-up: imports, lazy set-up and the first solve's caches.
    warm = Run(instances[:1], folder)
    warm.unit()

    plain_setup, plain_solves, traced_solves, fp = [], [], [], []
    tracer = Tracer()
    # CLI calls interleave with the untraced units, so both see the same machine drift.
    picks = [] if traced else cli_picks(args.workload, instances, folder)
    cli_runs = []
    t_start = perf_counter()
    units = 0
    while units == 0 or perf_counter() - t_start < args.seconds:
        if traced:
            # Alternate which pass goes first, so drift hits both alike.
            for use_tracer in ((False, True) if units % 2 == 0 else (True, False)):
                if use_tracer:
                    with tracer:
                        _, times, counts = run.unit(tracer)
                    traced_solves += times
                    fp += counts
                else:
                    _, times, _ = run.unit()
                    plain_solves += times
        else:
            read_s, times, _ = run.unit()
            plain_setup.append(read_s)
            plain_solves += times
            for name, kind, path in picks:
                cli_runs.append((name, kind, *cli_call(path)))
        units += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if not plain_solves or (traced and not traced_solves):
        for p in run.problems:
            print(f"bench: FAILED {p}", file=sys.stderr)
        print("bench: no solve completed, so there is nothing to report", file=sys.stderr)
        return 1

    run.check()
    attempted = run.attempted
    failed = run.failed
    problems = list(run.problems)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "PERRONKIT_THREADS": inherited_threads,
        "src_lines": src_lines(),
        "instances": [{k: inst[k] for k in ("name", "kind", "seed", "n", "nnz")}
                      | {"blocks": len(inst["block_sizes"])} for inst in instances],
        "units": units,
    }

    if traced:
        n = len(traced_solves)
        metrics = layer_metrics(tracer.spans, n, sum(it + 1 for it, _, strong in fp if strong))
        metrics["perron.fp_iterations"] = sum(it for it, _, _ in fp) / n
        metrics["perron.fp_restarts"] = sum(r for _, r, _ in fp) / n
        metrics["cli.import_s"] = cli_import_s()
        metrics["trace.overhead_s"] = statistics.median(traced_solves) - statistics.median(plain_solves)
        trace_file = folder / f"trace-{os.getpid()}.json"
        tracer.write(trace_file)
        context["trace_file"] = str(trace_file.relative_to(REPO))
        context["traced_solves"] = len(traced_solves)
        context["untraced_solves"] = len(plain_solves)
    else:
        validator = oracle.perron_schema_validator(SCHEMA)
        for name, kind, _, code, stdout in cli_runs:
            found = oracle.check_cli(validator, kind, code, stdout)
            failed += bool(found)
            problems += [f"cli {name}: {p}" for p in found]
        cli_times = [t for _, _, t, _, _ in cli_runs]
        attempted += len(cli_times)
        value, pct, beyond = tail(plain_solves)
        context["solve_tail"] = {"percentile": pct, "samples": len(plain_solves), "beyond": beyond}
        context["cli_calls"] = len(cli_times)
        metrics = {
            "solve_s": statistics.median(plain_solves),
            "solve_tail_s": value,
            "solves_per_s": len(plain_solves) / sum(plain_solves),
            "setup_s": statistics.median(plain_setup),
            "cli_s": statistics.median(cli_times),
            "peak_rss_mb": peak_rss_mb,
        }

    units_of = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
                for m in json.loads((REPO / "BENCHMARK.json").read_text())[key]}
    context["failed_frac"] = failed / attempted
    context["problems"] = problems[:20]
    for p in problems:
        print(f"bench: FAILED {p}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units_of[name]} for name, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
