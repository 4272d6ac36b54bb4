"""Print one sha256 per file that the taskcascade CLI writes on a fixed config matrix.

Two checkouts whose digests match write the same bytes on every command:

    python tools/output_digests.py --seed 42 > mine.txt
    python tools/output_digests.py --src ../other/src --seed 42 > theirs.txt
    diff mine.txt theirs.txt

The matrix is ``gen``; ``dist`` under every metric; ``tree`` of every kind;
``run`` of every method, and of ``mst`` under every budget scheme, on a
synthetic and on a ``data_path`` collection at ``--jobs`` 1 and 2; ``run``
of ``mst`` on ``mmd``, whose tree differs per replicate, and of ``mst``
on ``gradient`` from a Gaussian start, each on the ``data_path`` collection
at ``--jobs`` 1 and 2, since both read the replicate's seed where no
synthetic collection is drawn from it; ``dist`` under every
metric but ``target``, which rejects targets of unequal lengths by design,
and ``run`` of ``mst`` on ``gradient`` at ``--jobs`` 1 and 2, on a ragged
``data_path`` collection whose neighbouring tasks differ in ``n_train`` but
for one pair, so that its splits hold runs of one task and of two and are
cut at uneven offsets; a synthetic ``bench`` sweep
(``star``, ``random_tree`` and ``mst`` on ``gradient``, two budgets, three
seeds) at ``--jobs`` 1 and 2, the one command that runs several configs in
one process, so that a replicate's trees, its seeded random tree too, are
looked up again at the second budget; a ``data_path`` ``bench`` sweep
(``random_tree`` and ``mst`` on ``gradient``, two budgets) at ``--jobs`` 1
and 2, whose shared collection keeps each replicate's random tree under the
seed tuple it derives from; and ``verify`` in noiseless and noisy mode.
Each command runs in a fresh interpreter with ``--src`` on its path, in a
temporary directory that is removed afterwards. ``run_manifest.json`` holds timestamps, so it is left
out. A command that exits non-zero stops the script with its stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("feature", "mmd", "gauss_meancov", "cka", "target", "sym_kl", "js",
           "wasserstein", "gradient", "model")
TREE_KINDS = ("mst", "star", "random")
METHODS = ("individual", "star", "random_tree", "mst")
SCHEMES = ("depth_increasing", "depth_decreasing", "edge_length")
SYNTHETIC = {"num_tasks": 12, "dim": 4, "n_train": 16, "n_test": 8, "num_clusters": 2,
             "tau_between": 5.0, "tau_within": 1.0, "noise_sigma": 0.5}
# the README's chain config, and the noisy chain of the benchmark's cli-pipeline
CHAINS = {"num_chains": 100, "length": 4, "dim": 8, "n": 32, "budget_per_node": 10,
          "spacing": 2.0, "noise_sigma": 0.5, "noise_draws": 200}
# A hand-made collection whose n_train values differ but for one neighbouring pair.
RAGGED_N_TRAIN = (12, 16, 16, 13, 17, 11, 14, 15)
RAGGED_METRICS = tuple(m for m in METRICS if m != "target")
PIPELINE_CHAIN = {"mode": "noisy", "num_chains": 1, "length": 5, "noise_sigma": 0.5,
                  "noise_draws": 200}


def commands(seed: str) -> list[list[str]]:
    """The CLI argument lists of the matrix, in the order they run."""
    seed_args = ["--seed", seed]
    cmds = [["gen", "cfg/gen.json", "--out", "out/coll", *seed_args]]
    cmds += [["dist", "out/coll", "--metric", m, "--out", f"out/dist_{m}.csv", *seed_args]
             for m in METRICS]
    cmds += [["tree", "out/dist_gradient.csv", "--method", kind, "--out",
              f"out/tree_{kind}.csv", *seed_args] for kind in TREE_KINDS]
    runs = [(method, "uniform") for method in METHODS] + [("mst", s) for s in SCHEMES]
    for method, scheme in runs:
        for source in ("synthetic", "data_path"):
            for jobs in ("1", "2"):
                name = f"run_{method}_{scheme}_{source}"
                cmds.append(["run", f"cfg/{name}.json", "--out", f"out/{name}_jobs{jobs}",
                             "--jobs", jobs, *seed_args])
    cmds += [["run", f"cfg/{name}.json", "--out", f"out/{name}_jobs{jobs}", "--jobs", jobs,
              *seed_args]
             for name in ("run_mst_mmd_data_path", "run_mst_gaussian_init_data_path")
             for jobs in ("1", "2")]
    cmds += [["dist", "ragged", "--metric", m, "--out", f"out/ragged_dist_{m}.csv",
              *seed_args] for m in RAGGED_METRICS]
    cmds += [["run", "cfg/run_ragged.json", "--out", f"out/run_ragged_jobs{jobs}",
              "--jobs", jobs, *seed_args] for jobs in ("1", "2")]
    for name in ("bench", "bench_data_path"):
        for jobs in ("1", "2"):
            cmds.append(["bench", f"cfg/{name}.json", "--out", f"out/{name}_jobs{jobs}",
                         "--jobs", jobs, *seed_args])
    for name in ("noiseless", "noisy", "pipeline"):
        cmds.append(["verify", f"cfg/verify_{name}.json", "--out",
                     f"out/verify_{name}.json", *seed_args])
    return cmds


def write_configs(cfg: Path) -> None:
    cfg.mkdir()
    configs = {"gen.json": SYNTHETIC,
               "verify_noiseless.json": {"mode": "noiseless", **CHAINS},
               "verify_noisy.json": {"mode": "noisy", **CHAINS},
               "verify_pipeline.json": PIPELINE_CHAIN,
               "bench.json": {"methods": ["star", "random_tree", "mst"],
                              "metrics": ["gradient"], "budgets": [100, 200], "num_seeds": 3,
                              "synthetic": SYNTHETIC},
               "run_ragged.json": {"method": "mst", "metric_name": "gradient", "budget": 200,
                                   "num_seeds": 3, "data_path": "ragged"},
               "bench_data_path.json": {"methods": ["random_tree", "mst"],
                                        "metrics": ["gradient"], "budgets": [100, 200],
                                        "num_seeds": 3, "data_path": "out/coll"},
               "run_mst_mmd_data_path.json": {"method": "mst", "metric_name": "mmd",
                                              "budget": 200, "num_seeds": 3,
                                              "data_path": "out/coll"},
               "run_mst_gaussian_init_data_path.json": {
                   "method": "mst", "metric_name": "gradient", "budget": 200,
                   "num_seeds": 3, "gaussian_init": True, "data_path": "out/coll"}}
    for method in METHODS:
        for scheme in ("uniform", *SCHEMES) if method == "mst" else ("uniform",):
            run = {"method": method, "metric_name": "gradient" if method == "mst" else None,
                   "budget": 200, "num_seeds": 3,
                   "scheme": {"kind": scheme, "alpha": 1.5, "beta": 1.0}}
            configs[f"run_{method}_{scheme}_synthetic.json"] = {**run, "synthetic": SYNTHETIC}
            configs[f"run_{method}_{scheme}_data_path.json"] = {**run, "data_path": "out/coll"}
    for name, doc in configs.items():
        (cfg / name).write_text(json.dumps(doc))


def write_ragged(root: Path, seed: str, dim: int = 4, n_test: int = 8) -> None:
    """The ragged collection: noisy linear tasks drawn from ``seed``, written
    as ``save_collection`` lays a collection out."""
    rng = random.Random(int(seed))
    root.mkdir()
    header = ",".join([f"x{j + 1}" for j in range(dim)] + ["y"])
    entries = []
    for v, n_train in enumerate(RAGGED_N_TRAIN):
        theta = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        entry = {"id": f"r{v}"}
        for split, n in (("train", n_train), ("test", n_test)):
            lines = [header]
            for _ in range(n):
                x = [rng.gauss(0.0, 1.0) for _ in range(dim)]
                y = sum(a * b for a, b in zip(x, theta)) + 0.5 * rng.gauss(0.0, 1.0)
                lines.append(",".join(map(repr, [*x, y])))
            entry[f"{split}_csv"] = f"r{v}_{split}.csv"
            (root / entry[f"{split}_csv"]).write_text("\n".join(lines) + "\n")
        entries.append(entry)
    (root / "manifest.json").write_text(json.dumps({"dim": dim, "tasks": entries}))


def digests(src: Path, seed: str) -> list[str]:
    """``<sha256>  <path>`` for every output file, sorted by path."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve()), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory(prefix="output-digests-") as tmp:
        work = Path(tmp)
        write_configs(work / "cfg")
        write_ragged(work / "ragged", seed)
        (work / "out").mkdir()
        for args in commands(seed):
            done = subprocess.run([sys.executable, "-m", "taskcascade.cli", *args], cwd=work,
                                  env=env, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
        out = work / "out"
        return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}"
                for path in sorted(out.rglob("*"))
                if path.is_file() and path.name != "run_manifest.json"]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).parents[1] / "src",
                        help="src directory of the checkout to run (default: this one's)")
    parser.add_argument("--seed", type=int, default=42, help="--seed of every command")
    args = parser.parse_args(argv)
    print("\n".join(digests(args.src, str(args.seed))))


if __name__ == "__main__":
    main()
