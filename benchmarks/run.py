"""Run one benchmark workload against the taskcascade package in ``src/``.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload protocol --seed 42 --seconds 20 --trace 0

Workloads: ``protocol``, ``long-budget``, ``many-tasks`` and
``cli-pipeline`` (see ``workloads.py`` for what each runs and why), or
``all`` to run the four in turn, each followed by its result line. The
seed sets every input of the workload; the program only receives the
generated inputs. The default, 42, is the seed the committed references
were recorded at. A claimed gain must also hold on a seed that was not used
while the change was written, so rerun both commits with, say,
``--seed 7`` as well.

``--trace 0`` measures the end-to-end metrics with tracing off: the median
time of a set-up step (importing taskcascade in a fresh interpreter), the
median and tail pass time and the throughput in reference seconds (see
``Clock``), and peak memory. ``--trace 1`` runs
the same passes alternately with and without spans around the package's
public functions and reports per-layer self time, call counts and work
counts, plus the tracing overhead. Either way every pass's outputs are
checked (see ``workloads.py``); a failed check makes ``correct`` false and
the exit code 1.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record (provenance, samples, tail
percentile, failures, diagnostics, all layers) is written next to the
spans under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "ref_s",
    "wall_s.tail": "ref_s",
    "replicates_per_s": "1/ref_s",
    "tasks_per_s": "1/ref_s",
    "peak_rss_mb": "MB",
}

# Layers every workload runs, so each reports all of them. The traced run
# records every function in tracing.TRACED; the rest go to the record.
LAYERS = (
    "tasks.generate_synthetic",
    "distances.compute_distance_matrix",
    "graph.medoid",
    "graph.mst",
    "graph.root_tree",
    "graph.topological_order",
    "budget.allocate",
    "linmodel.lambda_max",
    "linmodel.refine",
    "linmodel.rmse",
    "cascade.run_cascade",
)
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "linmodel.refine.steps": "count",
    "linmodel.refine.steps_per_s": "1/s",
    "distances.pairs": "count",
    "distances.pairs_per_s": "1/s",
    "trace.overhead_s": "s",
}


def tail(samples: list[float]) -> dict:
    """The highest percentile that has at least ten samples beyond it.

    With ten samples or fewer none has, and the slowest sample is reported;
    ``percentile`` and ``samples_beyond`` say which was taken.
    """
    xs = sorted(samples)
    n = len(xs)
    k = n - 11 if n >= 11 else n - 1
    return {
        "value": xs[k],
        "percentile": 100.0 * (k + 1) / n,
        "samples": n,
        "samples_beyond": n - 1 - k,
    }


def setup_time(tmp: Path, probes: int) -> tuple[float, float]:
    """Median seconds to import taskcascade, and taskcascade.cli, afresh.

    Each probe is a fresh interpreter that times its own imports, so
    interpreter start-up is left out.
    """
    from workloads import child_env

    code = (
        "import time; t = time.perf_counter(); import taskcascade; "
        "a = time.perf_counter() - t; import taskcascade.cli; "
        "print(a, time.perf_counter() - t)"
    )
    package, cli = [], []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp, env=child_env(tmp),
            capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise RuntimeError(f"importing taskcascade failed: {out.stderr.strip()}")
        a, b = out.stdout.split()
        package.append(float(a))
        cli.append(float(b))
    return statistics.median(package), statistics.median(cli)


class Clock:
    """Pass times in reference seconds (ref_s), beside raw wall seconds.

    The host's CPU speed swings by up to 2x over seconds to minutes as other
    tenants load it, and a median of raw pass times follows the swing. A
    fixed numpy kernel is therefore timed at every step boundary; a step's
    reference time is its wall time divided by the mean kernel time at its
    two ends, times NOMINAL_KERNEL_S, which cancels most of the swing for
    work done in this process. Steps that are child processes slow down
    differently (no kernel tried tracked them better than the wall clock),
    so without a kernel a step's reference time is its wall time.
    """

    def __init__(self, kernel=None):
        self.kernel = kernel
        self._edge = kernel() if kernel else None
        self.raw = self.ref = 0.0
        self.laps = 0

    def start_pass(self) -> None:
        self.raw = self.ref = 0.0
        self.laps = 0

    def lap(self, wall: float) -> None:
        self.raw += wall
        self.laps += 1
        if self.kernel is None:
            self.ref += wall
            return
        edge = self.kernel()
        self.ref += wall / ((self._edge + edge) / 2) * NOMINAL_KERNEL_S
        self._edge = edge


# One ref_s is a second on a machine where numpy_kernel takes this long.
NOMINAL_KERNEL_S = 0.005


def numpy_kernel() -> float:
    """Median of three timings of a fixed interpreter-bound numpy loop."""
    import numpy as np

    S = np.asarray(_KERNEL_MATRIX)
    times = []
    for _ in range(3):
        v = np.ones(S.shape[0])
        start = time.perf_counter()
        for _ in range(1000):
            v = S @ v
            v /= np.linalg.norm(v)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


_KERNEL_MATRIX = [[1.0 / (1 + abs(i - j)) for j in range(20)] for i in range(20)]


class Ledger:
    """Operations attempted and failed across the passes of one run.

    The first output of every operation is kept for the checks; every pass
    is also reduced to one fingerprint per operation, which must match the
    operation's first fingerprint.
    """

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[str, dict] = {}
        self.prints: list[dict[str, str]] = []
        self.errors: list[str] = []
        self.error_ops = 0
        self.clock = Clock(None if workload.child_processes else numpy_kernel)

    def run(self, run_pass) -> tuple[float, float] | None:
        """Run one pass: its (wall, reference) seconds, or None when it raised.

        A pass that times its own steps reports them to the clock; any
        other pass is timed whole.
        """
        self.clock.start_pass()
        start = time.perf_counter()
        try:
            outputs = run_pass(self.clock)
        except Exception:
            self.errors.append(traceback.format_exc())
            self.error_ops += self.workload.operations_per_pass
            return None
        if self.clock.laps == 0:
            self.clock.lap(time.perf_counter() - start)
        self.prints.append({op: self.workload.fingerprint(o) for op, o in outputs.items()})
        if set(outputs) - set(self.first):
            for op, out in outputs.items():
                self.first.setdefault(op, out)
        else:
            self.workload.discard(outputs)
        return self.clock.raw, self.clock.ref

    def settle(self, references, diagnostics) -> tuple[int, int, dict[str, list[str]]]:
        """Check the first outputs; return attempted, failed and the problems."""
        problems: dict[str, list[str]] = {}
        if self.first:
            try:
                found = self.workload.check(self.first, references, diagnostics)
            except Exception:
                found = {op: [traceback.format_exc()] for op in self.first}
            problems = {op: msgs for op, msgs in found.items() if msgs}
            self.workload.discard(self.first)
        attempted = sum(len(p) for p in self.prints) + self.error_ops
        failed = self.error_ops
        first: dict[str, str] = {}
        for k, prints in enumerate(self.prints):
            for op, fp in prints.items():
                if op in problems:
                    failed += 1
                elif first.setdefault(op, fp) != fp:
                    failed += 1
                    problems.setdefault(op, []).append(f"pass {k} differs from the first pass")
        if self.errors:
            problems["exceptions"] = self.errors
        return attempted, failed, problems


def _references(workload) -> dict | None:
    if not REFERENCES.is_file():
        return None
    entry = json.loads(REFERENCES.read_text()).get(workload.name)
    if entry and entry["seed"] == workload.seed and entry["params"] == workload.params:
        return entry["values"]
    return None


def _timed(workload, ledger, seconds) -> dict:
    """End-to-end metrics of untraced passes until ``seconds`` have passed."""
    if workload.warm_up:
        ledger.run(workload.run_pass)
    raw, ref = [], []
    deadline = time.perf_counter() + seconds
    while not ref or time.perf_counter() < deadline:
        times = ledger.run(workload.run_pass)
        if times is None:
            break
        raw.append(times[0])
        ref.append(times[1])
    if not ref:
        return {"metrics": {}}
    rss = workload.peak_rss_mb()
    wall = statistics.median(ref)
    t = tail(ref)
    return {
        "metrics": {
            "wall_s": wall,
            "wall_s.tail": t["value"],
            "replicates_per_s": workload.replicates_per_pass / wall,
            "tasks_per_s": workload.tasks_per_pass / wall,
            "peak_rss_mb": rss,
        },
        "ref_samples": ref,
        "wall_samples": raw,
        "raw_wall_s": statistics.median(raw),
        "tail": t,
    }


def _traced(workload, ledger, seconds, cli_import_s, spans_path) -> dict:
    """Per-layer metrics from passes run alternately without and with spans."""
    from tracing import Tracer, layer_totals

    deadline = time.perf_counter() + seconds
    extra = {}
    ledger.run(workload.run_pass)
    if workload.child_processes and ledger.first:
        extra["cli.import_s"] = cli_import_s
        for cmd, out in ledger.first.items():
            extra[f"cli.{cmd}.wall_s"] = out["wall_s"]
            extra[f"cli.{cmd}.cpu_s"] = out["cpu_s"]
    tracer = Tracer()
    untraced, traced = [], []
    while not traced or time.perf_counter() < deadline:
        plain = ledger.run(workload.layer_pass)
        tracer.start_pass(f"pass{len(traced)}")
        with tracer:
            spanned = ledger.run(workload.layer_pass)
        if plain is None or spanned is None:
            break
        untraced.append(plain[0])
        traced.append(spanned[0])
    tracer.write(spans_path)
    if not traced:
        return {"metrics": {}}
    n = len(traced)
    totals = layer_totals(tracer.spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics = {}
    for layer in LAYERS:
        entry = totals.get(layer, empty)
        metrics[f"{layer}.self_s"] = entry["self_s"] / n
        metrics[f"{layer}.calls"] = entry["calls"] / n
    for name, layer in (("linmodel.refine.steps", "linmodel.refine"),
                        ("distances.pairs", "distances.compute_distance_matrix")):
        count = tracer.counts.get(name, 0)
        busy = totals.get(layer, empty)["total_s"]
        metrics[name] = count / n
        metrics[f"{name}_per_s"] = count / busy if busy > 0 else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    layers = {
        f"{name}.{kind}": value / n
        for name, entry in sorted(totals.items())
        for kind, value in entry.items()
    }
    layers.update(extra)
    return {
        "metrics": metrics,
        "layers": layers,
        "layer_source": workload.layer_source,
        "untraced_samples": untraced,
        "traced_samples": traced,
        "spans": str(spans_path),
    }


def measure(workload, seconds: float, trace: bool, out_dir: Path, tmp: Path,
            setup_probes: int = SETUP_PROBES) -> dict:
    """One run of ``workload``: its record, including the final-line result."""
    import provenance
    import workloads

    stem = f"{workload.name}-seed{workload.seed}" + ("-trace" if trace else "")
    ledger = Ledger(workload)
    setup, cli_import_s = setup_time(tmp, setup_probes)
    if trace:
        body = _traced(workload, ledger, seconds, cli_import_s, out_dir / f"{stem}-spans.jsonl")
    else:
        body = _timed(workload, ledger, seconds)
        if body["metrics"]:
            body["metrics"] = {"setup_s": setup, **body["metrics"]}
    diagnostics: dict = {}
    attempted, failed, problems = ledger.settle(_references(workload), diagnostics)
    units = PER_LAYER if trace else END_TO_END
    correct = failed == 0 and bool(body["metrics"])
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {
            name: {"value": body["metrics"][name], "unit": unit}
            for name, unit in units.items() if name in body["metrics"]
        },
    }
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "params": workload.params,
        "seconds": seconds,
        "trace": trace,
        "why": workloads.WHY[workload.name],
        "predictions": workloads.PREDICTIONS,
        "setup_s": setup,
        "failed_frac": result["failed"] / result["attempted"],
        "problems": problems,
        "diagnostics": diagnostics,
        "output_sha256": workloads.digest(
            {op: fp for prints in ledger.prints for op, fp in prints.items()}
        ),
        "provenance": provenance.record(ROOT),
        **{k: v for k, v in body.items() if k != "metrics"},
        "result": result,
    }
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    record["path"] = str(path)
    return record


def _print_summary(record: dict) -> None:
    result = record["result"]
    print(f"{record['workload']} seed {record['seed']}: "
          f"{result['failed']}/{result['attempted']} operations failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':<40} {record['failed_frac']:.6g} share")
    if "tail" in record:
        t = record["tail"]
        print(f"  wall_s.tail is p{t['percentile']:.1f} of {t['samples']} passes "
              f"({t['samples_beyond']} beyond it)")
    if "trace.overhead_s" in result["metrics"]:
        print(f"  layers taken from: {record['layer_source']}")
    for op, msgs in record["problems"].items():
        for msg in msgs[:5]:
            print(f"  FAILED {op}: {msg.strip()}")
    print(f"  record: {record['path']}")


WORKLOAD_NAMES = ("protocol", "long-budget", "many-tasks", "cli-pipeline")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "taskcascade" / "__init__.py").is_file():
        print(f"error: no taskcascade package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        with tempfile.TemporaryDirectory(dir=out_dir, prefix="tmp-") as tmp:
            workload = workloads.WORKLOADS[name](args.seed, Path(tmp))
            record = measure(workload, args.seconds, bool(args.trace), out_dir, Path(tmp))
        _print_summary(record)
        print(json.dumps(record["result"]))
        correct = correct and record["result"]["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
