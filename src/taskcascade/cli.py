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
0 success, 1 runtime failure (refinement that diverges), 2 usage, config
or input-data error: every package error that is a ``ValueError``, such as
a malformed collection or distance matrix, tasks of unequal shapes, a
missing test split, a design that is zero or singular, or values that
overflow or underflow. The error names the task, the pair of tasks for a
distance, or the config key. A path that is missing or of the wrong kind,
and a file that cannot be decoded as text, exit 2 naming the path.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import sys
import time
import typing
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import ConfigError, TaskCascadeError

# Every command runs in a fresh interpreter, so each one imports the layers it
# uses when it starts: ``gen`` never compiles the cascade or the theory code.


def _load_json(path: str | Path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed JSON in {p}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{p} must hold a JSON object")
    return data


def _load_config(path: str | None, seed: int | None) -> dict:
    """The JSON object in ``path`` (empty without one), with ``--seed`` applied."""
    data = _load_json(path) if path else {}
    if seed is not None:
        data["seed"] = seed
    return data


# How a message names the JSON values of each annotated field type.
_JSON_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", type(None): "null"}


def _is_json(tp, value) -> bool:
    """Whether ``value`` has annotation ``tp``'s JSON type.

    ``true`` is no number, and neither are ``NaN`` and ``Infinity``, which
    ``json`` reads as floats but a range check such as ``x < 0`` lets pass.
    """
    if tp is float:
        tp = (int, float)
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return isinstance(value, tp) and isinstance(value, bool) == (tp is bool)


def _build(cls, data, what: str):
    """The ``cls`` config that the JSON object ``data`` describes.

    Each value must have the JSON type of its field's annotation (``null``
    too for ``X | None``); a field annotated with a config dataclass is built
    from its own object. Values pass through unconverted, so a config echoes
    its JSON exactly. The config checks their ranges when it is built.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{what} config must be a JSON object")
    hints = typing.get_type_hints(cls)  # one entry per field
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    values = {}
    for key, value in data.items():
        types = typing.get_args(hints[key]) or (hints[key],)
        if isinstance(value, dict) and dataclasses.is_dataclass(types[0]):
            values[key] = _build(types[0], value, key)
        elif any(_is_json(tp, value) for tp in types):
            values[key] = value
        else:
            expected = " or ".join(_JSON_NAMES.get(tp, "an object") for tp in types)
            got = json.dumps(value)
            raise ConfigError(f"{what} key {key!r} must be {expected}, got {got}")
    try:
        return cls(**values)
    except TypeError as exc:
        raise ConfigError(f"bad {what} config: {exc}") from None


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
    config = _build(SyntheticConfig, _load_config(args.config, args.seed), "synthetic")
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
    params = _build(DistanceParams, _load_config(args.params, args.seed), "distance")
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
    from .cascade import ExperimentConfig, run_experiment, write_run_report

    started = time.time()
    config = _build(ExperimentConfig, _load_config(args.config, args.seed), "experiment")
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

    data = _load_config(args.config, args.seed)
    mode = data.pop("mode", "noiseless")
    num_chains = data.pop("num_chains", 1)
    if type(num_chains) is not int or num_chains < 1:
        raise ConfigError(f"num_chains must be a positive integer, got {num_chains!r}")
    if mode not in ("noiseless", "noisy"):
        raise ConfigError(f"unknown mode {mode!r}; valid: noiseless, noisy")
    if mode == "noiseless":
        data["noise_sigma"] = 0.0
    base = _build(ChainConfig, data, "chain")
    if mode == "noisy" and base.noise_sigma <= 0:
        raise ConfigError("noisy mode requires noise_sigma > 0")

    checks = []
    for k in range(num_chains):
        config = dataclasses.replace(base, seed=derive_seed(base.seed, "chain", k))
        checks.append(verify_bounds(config))
    with open(args.out, "w") as fh:
        json.dump([dataclasses.asdict(c) for c in checks], fh, indent=2)
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
    from .cascade import DEFAULT_MEDOID_METRIC, ExperimentConfig, run_experiment

    started = time.time()
    data = _load_config(args.config, args.seed)
    methods = data.pop("methods", [])
    metrics = data.pop("metrics", [None])
    budgets = data.pop("budgets", [])
    for key, value in (("methods", methods), ("metrics", metrics), ("budgets", budgets)):
        if not isinstance(value, list):
            raise ConfigError(f"bench key {key!r} must be a list, got {json.dumps(value)}")
    if not methods or not metrics or not budgets:
        raise ConfigError("bench config needs non-empty 'methods', 'metrics' and 'budgets'")
    sweep = [
        {**data, "method": method, "metric_name": metric, "budget": B}
        for method in methods
        for metric in (metrics if method == "mst" else [None])
        for B in budgets
    ]
    # Every config of the sweep is built, so checked, before any of it runs.
    configs = [_build(ExperimentConfig, entry, "experiment") for entry in sweep]
    rows = []
    for config in configs:
        report = run_experiment(config, jobs=args.jobs)
        used_metric = "none"  # individual compares no tasks
        if config.method != "individual":
            used_metric = config.metric_name or DEFAULT_MEDOID_METRIC
        for r, value in enumerate(report.per_seed_mean_rmse):
            rows.append((config.method, used_metric, config.budget, r, value))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bench_csv = out / "bench.csv"
    with bench_csv.open("w") as fh:
        fh.write("method,metric,B,seed,mean_rmse\n")
        for method, metric, B, r, value in rows:
            fh.write(f"{method},{metric},{B},{r},{value!r}\n")
    _write_manifest(out, args.config, data.get("seed"), ["bench.csv"], started)
    print(f"wrote {len(rows)} rows to {bench_csv}")
    return 0


def _jobs(text: str) -> int:
    """The value of ``--jobs``: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


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
    p.add_argument("--jobs", type=_jobs, default=1)
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
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TaskCascadeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Every package error that describes input or config is a ValueError,
        # and an OSError names a path that is missing or of the wrong kind;
        # the one runtime failure, DivergenceError, is neither.
        return 2 if isinstance(exc, (ValueError, OSError)) else 1


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
