"""The benchmark's workloads: what each runs, why, and how its output is checked.

Every workload is a batch job driven as a closed loop by one client: a pass
is issued only after the previous one returned. A pass is the unit that
``wall_s`` times. An operation is one replicate, or one CLI command in
``cli-pipeline``; it fails on an exception or a non-zero exit, or when its
outputs fail a check. The first outputs of every operation are checked
against ``oracle``, and against the references recorded from the seed code
when the seed and sizes are the ones they were recorded at; every later run
of the operation must reproduce its first outputs exactly.

Pass sizes are scaled down from the configs behind the paper's claims so
that a 20-second run holds many passes; each workload keeps the layer mix
of the full-size config (see ``WHY`` and ``PREDICTIONS``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
from taskcascade.seeding import derive_seed

import oracle

DEFAULT_SEED = 42

# The paper's acceptance config without T, budget and seeds.
ACCEPTANCE = dict(
    dim=20, n_train=64, n_test=128, num_clusters=2,
    tau_between=10.0, tau_within=2.0, noise_sigma=1.0,
)

# Relative tolerance of every RMSE check: the ROADMAP's bound on how far a
# speed-up may move results.
RMSE_RTOL = 1e-9
DIST_RTOL = 1e-12

WHY = {
    "protocol": (
        "the acceptance config behind every paper claim (T=50, B=500, all four "
        "methods); lambda_max's power iteration dominates, distances next, mst ~1%"
    ),
    "long-budget": (
        "same data and layers as protocol but B=50000 on mst/gradient: refine's "
        "per-step loop dominates, so closed-form refinement shows here only"
    ),
    "many-tasks": (
        "T=250, one replicate per pass: the per-pair distance loop and pure-Python Prim "
        "grow as T^2 while refinement does about 2 steps per task"
    ),
    "cli-pipeline": (
        "fresh taskcascade processes gen, dist, tree, run and verify: the only "
        "workload paying import per command, CSV I/O, reports, the pool and theory"
    ),
}

# Layer -> the end-to-end metric it should move, on which workload. Written
# down before measuring; a change to a layer should move only these.
PREDICTIONS = {
    "linmodel.lambda_max, linmodel.rmse": (
        "wall_s and replicates_per_s on protocol; not long-budget or many-tasks"
    ),
    "linmodel.refine (+ .steps, .steps_per_s)": "wall_s on long-budget; not protocol",
    "linmodel.contraction_rate, theory.verify_bounds": "wall_s on cli-pipeline",
    "distances.compute_distance_matrix (+ distances.pairs, .pairs_per_s)": (
        "tasks_per_s on many-tasks; not long-budget"
    ),
    "graph.mst, medoid, root_tree, star_tree, random_spanning_tree, topological_order": (
        "many-tasks; mst has no measurable effect on protocol"
    ),
    "budget.allocate": "none; its share is near zero everywhere",
    "tasks.generate_synthetic": "protocol and many-tasks",
    "tasks.save/load_collection, distances.save/load_distance_matrix, "
    "cascade.write_run_report": "cli-pipeline",
    "cascade.run_experiment, run_method, run_cascade, run_individual": (
        "self time only: the glue around the layers"
    ),
    "cli.import_s, cli.<cmd>.wall_s, cli.<cmd>.cpu_s": "setup_s and wall_s on cli-pipeline",
}


def digest(obj) -> str:
    """sha256 of a value's canonical JSON (floats by repr, arrays by bytes)."""

    def default(o):
        if isinstance(o, np.ndarray):
            return hashlib.sha256(np.ascontiguousarray(o).tobytes()).hexdigest()
        raise TypeError(type(o))

    text = json.dumps(obj, sort_keys=True, default=default)
    return hashlib.sha256(text.encode()).hexdigest()


def _rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    scale = np.maximum(np.abs(b), np.finfo(float).tiny)
    return float(np.max(np.abs(a - b) / scale, initial=0.0))


def _close(what, got, want, rtol, problems) -> None:
    err = _rel_err(got, want)
    if not err <= rtol:
        problems.append(f"{what}: relative error {err:.3g} > {rtol:g}")


def _equal(what, got, want, problems) -> None:
    if got != want:
        problems.append(f"{what}: got {_short(got)}, expected {_short(want)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _step_sizes(tasks, problems, diagnostics):
    """The package's step sizes, gated on stability, with their accuracy.

    The cascade uses eta = 1/lambda_max(X_train) from the package's own
    estimate. A step size is correct enough to check everything downstream
    of it when it is stable (eta < 2/lambda_max); its accuracy against the
    exact eigenvalue is reported as a diagnostic, not gated, because the
    seed code's power iteration is known to miss on a few designs in 10^4.
    """
    from taskcascade import linmodel

    lams = np.array([linmodel.lambda_max(X) for X, _, _, _ in tasks])
    exact = np.array([oracle.exact_lambda_max(X) for X, _, _, _ in tasks])
    rel = np.abs(lams - exact) / exact
    bad = np.flatnonzero(~((lams > exact / 2) & (lams <= exact * (1 + RMSE_RTOL))))
    for v in bad:
        problems.append(
            f"task{v}: lambda_max {lams[v]!r} gives an unstable or wrong step "
            f"(exact {exact[v]!r})"
        )
    diagnostics["lambda_max_rel_err_max"] = max(
        diagnostics.get("lambda_max_rel_err_max", 0.0), float(rel.max())
    )
    diagnostics["lambda_max_inexact_tasks"] = diagnostics.get(
        "lambda_max_inexact_tasks", 0
    ) + int(np.sum(rel > RMSE_RTOL))
    return 1.0 / lams


class Workload:
    """A named batch job. Subclasses define one pass and its checks."""

    name = ""
    replicates_per_pass = 1
    tasks_per_pass = 1
    operations_per_pass = 1
    # An untimed first pass, so that lazy set-up in this process is not timed.
    warm_up = True
    # Whether the timed steps are child processes rather than calls.
    child_processes = False
    layer_source = "the timed passes, traced in this process"

    # Inputs come in ``blocks`` sets with seeds of their own, and pass k runs
    # block k mod ``blocks``: how long the program takes depends on its
    # data (power iteration converges slowly on a few designs), so a run of
    # many short passes averages over as much data as a full-size config.
    blocks = 1

    def __init__(self, seed: int, tmp: Path, **params):
        self.seed = seed
        self.tmp = Path(tmp)
        self.params = params
        self._passes = 0

    def block_seed(self, b: int) -> int:
        return derive_seed(self.seed, "block", b)

    def next_block(self) -> int:
        self._passes += 1
        return (self._passes - 1) % self.blocks

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that ran the passes."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_pass(self, clock=None) -> dict[str, dict]:
        """Run one pass; return each operation's outputs by operation id.

        A pass made of separate steps may report each step's wall time to
        ``clock.lap``; otherwise the caller times the pass whole.
        """
        raise NotImplementedError

    def layer_pass(self, clock=None) -> dict[str, dict]:
        """The pass the traced run times with and without spans."""
        return self.run_pass(clock)

    def fingerprint(self, output: dict) -> str:
        """Digest of an operation's deterministic outputs."""
        return digest(output)

    def check(self, outputs, references, diagnostics) -> dict[str, list[str]]:
        """Problems found in a pass's outputs, by operation id."""
        raise NotImplementedError

    def reference(self, outputs) -> dict:
        """The values recorded from the seed code for the reference check."""
        raise NotImplementedError

    def discard(self, outputs) -> None:
        """Release what a checked pass left behind."""


class _Experiment(Workload):
    """In-process ``run_experiment`` over a list of (method, metric) pairs.

    A block is one ``run_experiment`` per method with ``num_seeds``
    replicates, so ``blocks`` blocks hold the replicates of the full config.
    """

    methods: tuple = ()
    budget = 0
    num_seeds = 1
    num_tasks = 50

    def __init__(self, seed, tmp, num_tasks=None, num_seeds=None, blocks=None):
        num_tasks = num_tasks or self.num_tasks
        num_seeds = num_seeds or self.num_seeds
        blocks = blocks or self.blocks
        super().__init__(seed, tmp, num_tasks=num_tasks, num_seeds=num_seeds, blocks=blocks)
        from taskcascade import cascade, tasks

        self.num_tasks, self.num_seeds, self.blocks = num_tasks, num_seeds, blocks
        synthetic = tasks.SyntheticConfig(num_tasks=num_tasks, **ACCEPTANCE)
        self.configs = [
            [
                cascade.ExperimentConfig(
                    method=method, metric_name=metric, budget=self.budget,
                    num_seeds=num_seeds, synthetic=synthetic, seed=self.block_seed(b),
                )
                for method, metric in self.methods
            ]
            for b in range(blocks)
        ]
        self.replicates_per_pass = len(self.methods) * num_seeds
        self.operations_per_pass = self.replicates_per_pass
        self.tasks_per_pass = self.replicates_per_pass * num_tasks

    def run_pass(self, clock=None):
        from taskcascade import cascade

        b = self.next_block()
        outputs = {}
        for config in self.configs[b]:
            start = time.perf_counter()
            report = cascade.run_experiment(config, jobs=1)
            if clock is not None:
                clock.lap(time.perf_counter() - start)
            for r, res in enumerate(report.results):
                T = len(res.task_ids)
                outputs[f"b{b}/{config.method}/{r}"] = {
                    "mean_rmse": report.per_seed_mean_rmse[r],
                    "test_rmse": [res.test_rmse[i] for i in range(T)],
                    "budgets": [res.budgets.per_task[i] for i in range(T)],
                    "steps": res.steps_executed,
                    "root": None if res.tree is None else res.tree.root,
                    "parent": None if res.tree is None else
                    sorted(res.tree.parent.items()),
                }
        return outputs

    def check(self, outputs, references, diagnostics):
        problems = {op: [] for op in outputs}
        replicates = sorted({(op.split("/")[0], op.split("/")[2]) for op in outputs})
        for block, r in replicates:
            rep_seed = oracle.replicate_seed(self.block_seed(int(block[1:])), int(r))
            data = oracle.synthetic(rep_seed, self.num_tasks, **ACCEPTANCE)
            step_problems = []
            etas = _step_sizes(data, step_problems, diagnostics)
            for method, _ in self.methods:
                op = f"{block}/{method}/{r}"
                if op not in outputs:
                    continue
                got, found = outputs[op], problems[op]
                found.extend(step_problems)
                want = oracle.replicate(method, self.budget, rep_seed, data, etas)
                _equal(f"{op} budgets", got["budgets"], want["budgets"], found)
                _equal(f"{op} steps", got["steps"], self.budget, found)
                _equal(f"{op} root", got["root"], want["root"], found)
                if want["parent"] is not None:
                    _equal(f"{op} tree", got["parent"], sorted(want["parent"].items()), found)
                _close(f"{op} test RMSE", got["test_rmse"], want["test_rmse"], RMSE_RTOL, found)
                _close(f"{op} mean RMSE", got["mean_rmse"], want["mean_rmse"], RMSE_RTOL, found)
        for op, ref in (references or {}).get("replicates", {}).items():
            got = outputs.get(op)
            if got is None:
                continue
            _close(f"{op} mean RMSE vs reference", got["mean_rmse"], ref["mean_rmse"],
                   RMSE_RTOL, problems[op])
            _equal(f"{op} budgets vs reference", got["budgets"], ref["budgets"], problems[op])
            _equal(f"{op} steps vs reference", got["steps"], ref["steps"], problems[op])
        return problems

    def reference(self, outputs):
        return {
            "replicates": {
                op: {k: out[k] for k in ("mean_rmse", "budgets", "steps")}
                for op, out in outputs.items()
            }
        }


class Protocol(_Experiment):
    name = "protocol"
    methods = (("individual", None), ("star", None), ("random_tree", None), ("mst", "gradient"))
    budget = 500
    # The paper's 20 seeds as ten blocks of two; a pass takes under 1 s.
    num_seeds = 2
    blocks = 10


class LongBudget(_Experiment):
    name = "long-budget"
    methods = (("mst", "gradient"),)
    budget = 50_000
    # Ten seeds as ten blocks of one.
    num_seeds = 1
    blocks = 10


class ManyTasks(Workload):
    """One replicate through the library layers at large T."""

    name = "many-tasks"
    blocks = 10

    def __init__(self, seed, tmp, num_tasks=250, blocks=None):
        blocks = blocks or self.blocks
        super().__init__(seed, tmp, num_tasks=num_tasks, blocks=blocks)
        from taskcascade import tasks

        self.num_tasks, self.blocks = num_tasks, blocks
        self.budget = 2 * num_tasks
        self.synthetic = [
            tasks.SyntheticConfig(num_tasks=num_tasks, seed=self.block_seed(b), **ACCEPTANCE)
            for b in range(blocks)
        ]
        self.tasks_per_pass = num_tasks

    def run_pass(self, clock=None):
        from taskcascade import budget, cascade, distances, graph, tasks

        b = self.next_block()
        collection, _ = tasks.generate_synthetic(self.synthetic[b])
        matrix = distances.compute_distance_matrix(collection, "gradient")
        root = graph.medoid(matrix)
        edges = graph.mst(matrix)
        tree = graph.root_tree(edges, root, matrix)
        budgets = budget.allocate(tree, self.budget, budget.AllocationScheme())
        result = cascade.run_cascade(collection, tree, budgets)
        T = self.num_tasks
        return {
            f"b{b}/replicate": {
                "distances": matrix.values,
                "edges": [list(e) for e in edges],
                "root": root,
                "budgets": [budgets.per_task[i] for i in range(T)],
                "steps": result.steps_executed,
                "test_rmse": [result.test_rmse[i] for i in range(T)],
            }
        }

    def check(self, outputs, references, diagnostics):
        problems = {}
        for op, got in outputs.items():
            found = problems[op] = []
            data = oracle.synthetic(self.block_seed(int(op.split("/")[0][1:])),
                                    self.num_tasks, **ACCEPTANCE)
            D = oracle.gradient_distances(data)
            _close("distance matrix", got["distances"], D, DIST_RTOL, found)
            root, edges = oracle.medoid(D), oracle.mst(D)
            _equal("root", got["root"], root, found)
            _equal("mst edges", [tuple(e) for e in got["edges"]], edges, found)
            parent, order = oracle.orient(edges, root, self.num_tasks)
            budgets = oracle.uniform_budgets(self.num_tasks, root, self.budget)
            _equal("budgets", got["budgets"], budgets, found)
            _equal("steps", got["steps"], self.budget, found)
            etas = _step_sizes(data, found, diagnostics)
            test = oracle.cascade(data, parent, order, budgets, etas)
            _close("test RMSE", got["test_rmse"], test, RMSE_RTOL, found)
            ref = (references or {}).get(op)
            if ref:
                _close("distance row sums vs reference", got["distances"].sum(axis=1),
                       ref["row_sums"], DIST_RTOL, found)
                _equal("root vs reference", got["root"], ref["root"], found)
                _equal("mst edges vs reference", got["edges"], ref["edges"], found)
        return problems

    def reference(self, outputs):
        return {
            op: {
                "row_sums": got["distances"].sum(axis=1).tolist(),
                "root": got["root"],
                "edges": got["edges"],
            }
            for op, got in outputs.items()
        }


def _index(task_id: str) -> int:
    return int(task_id[len("task"):])


def child_env(tmp: Path) -> dict[str, str]:
    """Environment of a child process: the checkout's src, temp files in tmp.

    BLAS thread variables pass through unchanged.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["TMPDIR"] = str(tmp)
    return env


def run_child(argv, cwd, env, log: Path, timeout=120.0) -> dict:
    """Run a child to completion: exit code, wall, user+sys CPU, peak RSS.

    CPU and peak RSS come from wait4, so they include the child's own
    waited-for children (the ``--jobs`` pool).
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {
        "exit": code,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


class CliPipeline(Workload):
    """Fresh ``taskcascade`` processes: gen -> dist -> tree -> run -> verify."""

    name = "cli-pipeline"
    commands = ("gen", "dist", "tree", "run", "verify")
    operations_per_pass = len(commands)
    # Every command is a fresh process, so users pay its start-up each time.
    warm_up = False
    child_processes = True
    layer_source = (
        "cli.* from the timed subprocess pass; every other layer from the same "
        "commands run in this process through cli.main with --jobs 1, because "
        "spans cannot follow a child process or pool worker"
    )

    def __init__(self, seed, tmp, num_tasks=50, num_seeds=4, budget=2000, num_chains=1):
        super().__init__(seed, tmp, num_tasks=num_tasks, num_seeds=num_seeds,
                         budget=budget, num_chains=num_chains)
        self.num_tasks, self.num_seeds, self.budget = num_tasks, num_seeds, budget
        self.num_chains = num_chains
        self.replicates_per_pass = num_seeds
        self.tasks_per_pass = num_tasks * num_seeds
        self.env = child_env(self.tmp)
        self._peak_rss_mb = 0.0
        configs = {
            "gen.json": {"num_tasks": num_tasks, **ACCEPTANCE},
            "run.json": {
                "method": "mst", "metric_name": "gradient", "budget": budget,
                "num_seeds": num_seeds, "data_path": "coll",
            },
            "verify.json": {
                "mode": "noisy", "num_chains": num_chains, "length": 5,
                "noise_sigma": 0.5, "noise_draws": 200,
            },
        }
        for name, doc in configs.items():
            (self.tmp / name).write_text(json.dumps(doc))

    def argv(self, jobs: int | None) -> list[tuple[str, list[str]]]:
        cfg, seed = str(self.tmp), str(self.seed)
        run = ["run", f"{cfg}/run.json", "--out", "run", "--seed", seed]
        if jobs is not None:
            run += ["--jobs", str(jobs)]
        return [
            ("gen", ["gen", f"{cfg}/gen.json", "--out", "coll", "--seed", seed]),
            ("dist", ["dist", "coll", "--metric", "wasserstein", "--out", "dist.csv"]),
            ("tree", ["tree", "dist.csv", "--method", "mst", "--out", "tree.csv"]),
            ("run", run),
            ("verify", ["verify", f"{cfg}/verify.json", "--out", "verify.json", "--seed", seed]),
        ]

    def fingerprint(self, output):
        return digest({"exit": output["exit"], "files": output["files"]})

    def _new_dir(self) -> Path:
        self._passes += 1
        work = self.tmp / f"pass{self._passes}"
        work.mkdir()
        return work

    def run_pass(self, clock=None):
        """Each command in a fresh interpreter, with the default ``--jobs``."""
        work = self._new_dir()
        outputs = {}
        for cmd, args in self.argv(jobs=None):
            stats = run_child(
                [sys.executable, "-m", "taskcascade.cli", *args], work, self.env,
                work / f"{cmd}.log",
            )
            if clock is not None:
                clock.lap(stats["wall_s"])
            outputs[cmd] = {**stats, "files": self._files(work, cmd), "dir": str(work)}
            self._peak_rss_mb = max(self._peak_rss_mb, stats["rss_mb"])
        return outputs

    def peak_rss_mb(self):
        """Peak resident memory of any command, its pool workers included."""
        return self._peak_rss_mb

    def layer_pass(self, clock=None):
        """The same commands in this process through ``cli.main``, ``--jobs 1``.

        Spans cannot follow a command into a child process or pool worker,
        so the traced run takes its layer numbers from this pass.
        """
        from taskcascade import cli

        work = self._new_dir()
        outputs = {}
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for cmd, args in self.argv(jobs=1):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    code = cli.main(args)
                    wall = time.perf_counter() - start
                if clock is not None:
                    clock.lap(wall)
                outputs[cmd] = {"exit": code, "wall_s": wall, "files": {}, "dir": str(work)}
        finally:
            os.chdir(cwd)
        for cmd in outputs:
            outputs[cmd]["files"] = self._files(work, cmd)
        return outputs

    def _files(self, work: Path, cmd: str) -> dict[str, str]:
        """sha256 of each deterministic output file of a command."""
        if cmd == "gen":
            paths = sorted((work / "coll").glob("*"))
        elif cmd == "run":
            paths = [work / "run" / n for n in ("report.json", "per_task.csv", "tree.csv")]
        else:
            paths = [work / {"dist": "dist.csv", "tree": "tree.csv", "verify": "verify.json"}[cmd]]
        return {
            str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            if p.is_file() else None
            for p in paths
            if p.name != "run_manifest.json"
        }

    def discard(self, outputs) -> None:
        for out in outputs.values():
            work = Path(out["dir"])
            shutil.rmtree(work, ignore_errors=True)

    def check(self, outputs, references, diagnostics):
        problems = {cmd: [] for cmd in self.commands}
        for cmd in self.commands:
            if cmd not in outputs:
                problems[cmd].append(f"{cmd}: did not run")
            elif outputs[cmd]["exit"] != 0:
                problems[cmd].append(f"{cmd}: exit code {outputs[cmd]['exit']}")
        if any(problems.values()):
            return problems
        work = Path(outputs["gen"]["dir"])
        T = self.num_tasks
        ids = [f"task{v}" for v in range(T)]
        data = oracle.synthetic(self.seed, T, **ACCEPTANCE)

        found = problems["gen"]
        manifest = json.loads((work / "coll" / "manifest.json").read_text())
        _equal("manifest ids", [e["id"] for e in manifest["tasks"]], ids, found)
        for v, (X, y, Xt, yt) in enumerate(data):
            for split, want in (("train", np.column_stack([X, y])),
                                ("test", np.column_stack([Xt, yt]))):
                got = np.loadtxt(work / "coll" / f"task{v}_{split}.csv", delimiter=",",
                                 skiprows=1, ndmin=2)
                if got.shape != want.shape or not np.array_equal(got, want):
                    found.append(f"task{v}_{split}.csv differs from the generated data")

        found = problems["dist"]
        lines = (work / "dist.csv").read_text().splitlines()
        _equal("dist.csv ids", lines[0].split(","), ids, found)
        W = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        want_W = oracle.wasserstein_distances(data)
        _close("wasserstein matrix", W, want_W, DIST_RTOL, found)

        found = problems["tree"]
        root = oracle.medoid(want_W)
        parent, _ = oracle.orient(oracle.mst(want_W), root, T)
        self._check_tree(work / "tree.csv", root, parent, want_W, found)

        found = problems["run"]
        D = oracle.gradient_distances(data)
        root = oracle.medoid(D)
        parent, order = oracle.orient(oracle.mst(D), root, T)
        self._check_tree(work / "run" / "tree.csv", root, parent, D, found)
        budgets = oracle.uniform_budgets(T, root, self.budget)
        depth = oracle.depths(parent, order)
        etas = _step_sizes(data, found, diagnostics)
        test = oracle.cascade(data, parent, order, budgets, etas)
        report = json.loads((work / "run" / "report.json").read_text())
        rows = (work / "run" / "per_task.csv").read_text().splitlines()
        _equal("per_task.csv header", rows[0], "seed,task_id,test_rmse,budget,depth", found)
        cells = [row.split(",") for row in rows[1:]]
        _equal("per_task.csv keys", [(c[0], c[1], c[3], c[4]) for c in cells],
               [(str(r), ids[v], str(budgets[v]), str(depth[v]))
                for r in range(self.num_seeds) for v in range(T)], found)
        _close("per_task.csv test_rmse", [float(c[2]) for c in cells], test * self.num_seeds,
               RMSE_RTOL, found)
        mean = float(np.mean(test))
        _close("report per_seed_mean_rmse", report["per_seed_mean_rmse"],
               [mean] * self.num_seeds, RMSE_RTOL, found)
        _close("report mean_rmse", report["mean_rmse"], mean, RMSE_RTOL, found)
        _equal("report total_steps", report["total_steps"], self.budget * self.num_seeds, found)
        _equal("report num_seeds", report["num_seeds"], self.num_seeds, found)
        if references:
            self._check_against(work / "run", references, found, diagnostics)

        found = problems["verify"]
        checks = json.loads((work / "verify.json").read_text())
        _equal("verify chains reported", len(checks), self.num_chains, found)
        for k, c in enumerate(checks):
            if c.get("mode") != "noisy" or not np.isfinite([c["empirical"], c["bound"]]).all():
                found.append(f"verify chain {k}: malformed entry {_short(c)}")
        return problems

    def _check_tree(self, path, root, parent, D, found):
        lines = path.read_text().splitlines()
        _equal(f"{path.name} root", lines[0], f"# root=task{root}", found)
        rows = [line.split(",") for line in lines[2:]]
        got = sorted((_index(c), _index(p)) for p, c, _ in rows)
        _equal(f"{path.name} edges", got, sorted(parent.items()), found)
        lengths = [float(w) for _, _, w in rows]
        want = [D[_index(p), _index(c)] for p, c, _ in rows]
        _close(f"{path.name} edge lengths", lengths, want, DIST_RTOL, found)

    def _check_against(self, run_dir: Path, references, found, diagnostics):
        """report.json and per_task.csv against the seed code's files.

        Numbers must agree to RMSE_RTOL and everything else exactly; whether
        the bytes are identical is recorded beside the check.
        """
        for name in ("report.json", "per_task.csv"):
            text, ref = (run_dir / name).read_text(), references[name]
            diagnostics[f"{name} bytes match reference"] = text == ref
            if name == "report.json":
                got, want = json.loads(text), json.loads(ref)
                nums = ("per_seed_mean_rmse", "mean_rmse", "std_rmse")
                _equal("report.json fields", {k: v for k, v in got.items() if k not in nums},
                       {k: v for k, v in want.items() if k not in nums}, found)
                for k in nums:
                    _close(f"report.json {k} vs reference", got[k], want[k], RMSE_RTOL, found)
            else:
                got = [row.split(",") for row in text.splitlines()]
                want = [row.split(",") for row in ref.splitlines()]
                _equal("per_task.csv keys vs reference", [r[:2] + r[3:] for r in got],
                       [r[:2] + r[3:] for r in want], found)
                _close("per_task.csv test_rmse vs reference",
                       [float(r[2]) for r in got[1:]], [float(r[2]) for r in want[1:]],
                       RMSE_RTOL, found)

    def reference(self, outputs):
        run_dir = Path(outputs["run"]["dir"]) / "run"
        return {n: (run_dir / n).read_text() for n in ("report.json", "per_task.csv")}


WORKLOADS = {w.name: w for w in (Protocol, LongBudget, ManyTasks, CliPipeline)}
