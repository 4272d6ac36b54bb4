import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskcascade import errors
from taskcascade.cli import main
from taskcascade.distances import (
    METRIC_NAMES,
    DistanceParams,
    compute_distance_matrix,
    load_distance_matrix,
)
from taskcascade.tasks import TaskCollection, TaskDataset, load_collection, save_collection

from conftest import log_calls, read_tree_csv


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def gen_config(tmp_path):
    return write_json(tmp_path / "gen.json", {
        "num_tasks": 4, "dim": 3, "n_train": 12, "n_test": 6,
        "num_clusters": 2, "tau_between": 1.0, "tau_within": 0.2,
        "noise_sigma": 0.1, "seed": 5,
    })


@pytest.fixture
def run_config(tmp_path):
    return write_json(tmp_path / "run.json", {
        "method": "mst", "metric_name": "gradient", "budget": 40, "num_seeds": 2,
        "seed": 9,
        "synthetic": {"num_tasks": 4, "dim": 3, "n_train": 12, "n_test": 6,
                      "num_clusters": 2, "tau_between": 1.0, "tau_within": 0.2,
                      "noise_sigma": 0.1},
    })


def tree_bytes(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"}


class TestGen:
    def test_success_and_outputs_exist(self, gen_config, tmp_path):
        out = tmp_path / "col"
        assert main(["gen", gen_config, "--out", str(out)]) == 0
        assert (out / "manifest.json").is_file()
        assert (out / "ground_truth.json").is_file()
        collection = load_collection(out)
        assert len(collection) == 4
        manifest = json.loads((out / "run_manifest.json").read_text())
        for name in manifest["outputs"]:
            assert (out / name).is_file(), name

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["gen", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"num_tasks": 0, "dim": 3})
        assert main(["gen", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_same_seed_byte_identical(self, gen_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", gen_config, "--out", str(a)]) == 0
        assert main(["gen", gen_config, "--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_seed_flag_overrides_config(self, gen_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", gen_config, "--out", str(a)])
        main(["gen", gen_config, "--out", str(b), "--seed", "123"])
        assert tree_bytes(a) != tree_bytes(b)


class TestDist:
    def test_single_task_matrix(self, tmp_path):
        cfg = write_json(tmp_path / "g.json", {"num_tasks": 1, "dim": 2,
                                               "n_train": 6, "n_test": 2, "seed": 1})
        col = tmp_path / "col"
        main(["gen", cfg, "--out", str(col)])
        out = tmp_path / "d.csv"
        assert main(["dist", str(col), "--metric", "target", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "task0"
        assert lines[1] == "0.0"

    def test_unknown_metric_exits_2_listing_names(self, gen_config, tmp_path, capsys):
        col = tmp_path / "col"
        main(["gen", gen_config, "--out", str(col)])
        code = main(["dist", str(col), "--metric", "bogus", "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "gradient" in capsys.readouterr().err

    def test_reload_equals_in_memory(self, gen_config, tmp_path):
        col_dir = tmp_path / "col"
        main(["gen", gen_config, "--out", str(col_dir)])
        out = tmp_path / "d.csv"
        assert main(["dist", str(col_dir), "--metric", "model", "--out", str(out)]) == 0
        collection = load_collection(col_dir)
        expected = compute_distance_matrix(collection, "model", DistanceParams())
        loaded = load_distance_matrix(out)
        assert np.array_equal(loaded.values, expected.values)

    def test_works_without_test_csvs(self, gen_config, tmp_path):
        # distance and tree phases must never touch test splits
        col = tmp_path / "col"
        main(["gen", gen_config, "--out", str(col)])
        with_test = tmp_path / "with.csv"
        main(["dist", str(col), "--metric", "gradient", "--out", str(with_test)])
        for p in col.glob("*_test.csv"):
            p.unlink()
        without_test = tmp_path / "without.csv"
        assert main(["dist", str(col), "--metric", "gradient",
                     "--out", str(without_test)]) == 0
        assert with_test.read_bytes() == without_test.read_bytes()

    def test_ignores_malformed_test_csvs(self, gen_config, tmp_path):
        # dist reads training splits only, so broken test files cannot fail it
        col = tmp_path / "col"
        main(["gen", gen_config, "--out", str(col)])
        valid = tmp_path / "valid.csv"
        assert main(["dist", str(col), "--metric", "wasserstein", "--out", str(valid)]) == 0
        bad_files = ["", "x1,x2,x3,y\n1.0,oops,3.0,4.0\n", "x1,y\n1.0\n", "no header"]
        for p, text in zip(sorted(col.glob("*_test.csv")), bad_files):
            p.write_text(text)
        assert main(["run", write_json(tmp_path / "r.json", {
            "method": "individual", "budget": 8, "num_seeds": 1, "data_path": str(col),
        }), "--out", str(tmp_path / "r"), "--jobs", "1"]) == 2
        broken = tmp_path / "broken.csv"
        assert main(["dist", str(col), "--metric", "wasserstein", "--out", str(broken)]) == 0
        assert broken.read_bytes() == valid.read_bytes()


    @pytest.mark.parametrize("bad_id", ["a,b", "../escape"])
    def test_unsafe_task_id_exits_2_and_writes_nothing(self, gen_config, tmp_path,
                                                       bad_id, capsys):
        col = tmp_path / "col"
        main(["gen", gen_config, "--out", str(col)])
        manifest = json.loads((col / "manifest.json").read_text())
        manifest["tasks"][2]["id"] = bad_id
        (col / "manifest.json").write_text(json.dumps(manifest))
        before = sorted(p.name for p in tmp_path.rglob("*"))
        out = tmp_path / "d.csv"
        assert main(["dist", str(col), "--metric", "gradient", "--out", str(out)]) == 2
        assert "invalid task id" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == before


    def test_data_file_outside_the_collection_exits_2(self, gen_config, tmp_path,
                                                      capsys):
        col = tmp_path / "a" / "b" / "col"
        main(["gen", gen_config, "--out", str(col)])
        # a readable file two directories up must not be loaded
        (tmp_path / "a" / "outside.csv").write_bytes((col / "task1_train.csv").read_bytes())
        manifest = json.loads((col / "manifest.json").read_text())
        manifest["tasks"][1]["train_csv"] = "../../outside.csv"
        (col / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "d.csv"
        assert main(["dist", str(col), "--metric", "gradient", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "task 'task1'" in err and "'../../outside.csv'" in err
        assert not out.exists()


class TestTree:
    def make_matrix(self, gen_config, tmp_path, metric="gradient"):
        col = tmp_path / "col"
        main(["gen", gen_config, "--out", str(col)])
        dist = tmp_path / "d.csv"
        main(["dist", str(col), "--metric", metric, "--out", str(dist)])
        return dist

    @pytest.mark.parametrize("method", ["mst", "star", "random"])
    def test_methods_write_valid_trees(self, gen_config, tmp_path, method):
        dist = self.make_matrix(gen_config, tmp_path)
        out = tmp_path / f"{method}.csv"
        assert main(["tree", str(dist), "--method", method, "--out", str(out),
                     "--seed", "3"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# root=")
        assert lines[1] == "parent,child,edge_length"
        assert len(lines) == 2 + 3  # T-1 edges for T=4

    def test_works_without_test_csvs(self, gen_config, tmp_path):
        dist = self.make_matrix(gen_config, tmp_path)
        for p in (tmp_path / "col").glob("*_test.csv"):
            p.unlink()
        dist2 = tmp_path / "d2.csv"
        main(["dist", str(tmp_path / "col"), "--metric", "gradient", "--out", str(dist2)])
        out = tmp_path / "t.csv"
        assert main(["tree", str(dist2), "--method", "mst", "--out", str(out)]) == 0

    def test_unknown_method_exits_2_listing_kinds(self, tmp_path, capsys):
        # checked before the matrix is read, so a missing file does not matter
        out = tmp_path / "t.csv"
        code = main(["tree", str(tmp_path / "none.csv"), "--method", "bogus",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err and "mst, star, random" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, problem", [
        ("a,b\n0.0,abc\n1.0,0.0\n", "non-numeric cell on line 2"),
        ("a,b\n0.0\n1.0,0.0\n", "line 2 has 1 cells, expected 2"),
    ])
    def test_malformed_matrix_exits_2_naming_file_and_line(self, tmp_path, capsys,
                                                           text, problem):
        dist = tmp_path / "dist.csv"
        dist.write_text(text)
        out = tmp_path / "t.csv"
        assert main(["tree", str(dist), "--method", "mst", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{dist}: " in err and problem in err
        assert not out.exists()


class TestRun:
    def test_report_files_written(self, run_config, tmp_path):
        out = tmp_path / "run"
        assert main(["run", run_config, "--out", str(out), "--jobs", "1"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["num_seeds"] == 2
        assert len(report["per_seed_mean_rmse"]) == 2
        assert (out / report["per_task_csv"]).is_file()
        assert (out / report["tree_csv"]).is_file()
        header = (out / "per_task.csv").read_text().splitlines()[0]
        assert header == "seed,task_id,test_rmse,budget,depth"
        manifest = json.loads((out / "run_manifest.json").read_text())
        for name in manifest["outputs"]:
            assert (out / name).is_file()

    def test_byte_identical_reruns_any_jobs(self, run_config, tmp_path):
        outs = []
        for name, jobs in (("r1", "1"), ("r2", "1"), ("r4", "2")):
            out = tmp_path / name
            assert main(["run", run_config, "--out", str(out), "--jobs", jobs]) == 0
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1] == outs[2]

    @settings(max_examples=15, deadline=None)
    @given(
        method=st.sampled_from(["individual", "star", "random_tree", "mst"]),
        metric=st.sampled_from(sorted(METRIC_NAMES)),
        num_tasks=st.integers(1, 8),
        num_seeds=st.integers(1, 4),
        steps_per_task=st.integers(1, 20),
        seed=st.integers(0, 2**31 - 1),
        loaded=st.booleans(),
    )
    def test_report_bytes_equal_at_jobs_1_2_3(self, method, metric, num_tasks, num_seeds,
                                              steps_per_task, seed, loaded):
        synthetic = {"num_tasks": num_tasks, "dim": 3, "n_train": 8, "n_test": 4,
                     "num_clusters": 1, "tau_between": 1.0, "noise_sigma": 0.1}
        run = {"method": method, "metric_name": metric,
               "budget": num_tasks * steps_per_task, "num_seeds": num_seeds, "seed": seed}
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            if loaded:
                gen = write_json(tmp / "gen.json", {**synthetic, "seed": seed})
                assert main(["gen", gen, "--out", str(tmp / "col")]) == 0
                run["data_path"] = str(tmp / "col")
            else:
                run["synthetic"] = synthetic
            cfg = write_json(tmp / "run.json", run)
            outs = []
            for jobs in ("1", "2", "3"):
                out = tmp / f"jobs{jobs}"
                assert main(["run", cfg, "--out", str(out), "--jobs", jobs]) == 0
                outs.append({name: (out / name).read_bytes()
                             for name in ("report.json", "per_task.csv")})
        assert outs[0] == outs[1] == outs[2]

    def test_data_path_loaded_once_and_identical_any_jobs(self, gen_config, tmp_path,
                                                           monkeypatch):
        from taskcascade import cascade

        col = tmp_path / "col"
        main(["gen", gen_config, "--out", str(col)])
        loads = []
        monkeypatch.setattr(cascade, "load_collection",
                            lambda path: loads.append(path) or load_collection(path))
        # logged to a file, so that the builds of pool workers count too
        log = tmp_path / "trees"
        trees = log_calls(monkeypatch, cascade, "build_tree", log, lambda matrix: matrix.size)
        pids = {}
        for method, metric in (("random_tree", "gradient"), ("mst", "gradient"),
                               ("mst", "mmd")):
            cfg = write_json(tmp_path / f"{method}_{metric}.json", {
                "method": method, "metric_name": metric, "budget": 40,
                "num_seeds": 3, "seed": 4, "data_path": str(col),
            })
            outs = []
            for jobs in ("1", "2"):
                out = tmp_path / f"{method}_{metric}{jobs}"
                log.unlink(missing_ok=True)
                assert main(["run", cfg, "--out", str(out), "--jobs", jobs]) == 0
                outs.append(tree_bytes(out))
                pids[method, metric, jobs] = [line.split()[0] for line in trees()]
            assert outs[0] == outs[1]
        assert len(loads) == 6  # one per run, not one per replicate
        me = str(os.getpid())
        # a random tree, and an mmd tree, whose distances draw on the seed,
        # per replicate; a seed-free mst once per process that runs replicates
        for jobs in ("1", "2"):
            assert len(pids["random_tree", "gradient", jobs]) == 3
            assert len(pids["mst", "mmd", jobs]) == 3
        assert pids["mst", "gradient", "1"] == [me]
        pooled = pids["mst", "gradient", "2"]
        assert 1 <= len(pooled) <= 2 and len(set(pooled)) == len(pooled) and me not in pooled

    @pytest.mark.parametrize("method", ["individual", "mst"])
    def test_zero_design_exits_2_naming_the_task(self, gen_config, tmp_path, method,
                                                 capsys):
        col = tmp_path / "col"
        main(["gen", gen_config, "--out", str(col)])
        train = col / "task2_train.csv"
        lines = train.read_text().splitlines()
        zeroed = [",".join(["0.0"] * 3 + [row.split(",")[-1]]) for row in lines[1:]]
        train.write_text("\n".join([lines[0], *zeroed]) + "\n")
        cfg = write_json(tmp_path / "run.json", {
            "method": method, "metric_name": "gradient", "budget": 40,
            "num_seeds": 1, "data_path": str(col),
        })
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "task 'task2': X^T X is the zero matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("X_train, problem", [
        (np.full((4, 2), 1e200), "X^T X is not finite"),  # the Gram matrix overflows
        # v0 lies in the kernel of X^T X, whose top eigenvalue gives the step
        (np.array([[1.0, -1.0]]), None),
    ])
    def test_degenerate_design_exits_2_naming_the_task(self, tmp_path, capsys, X_train,
                                                       problem):
        rng = np.random.default_rng(0)
        tasks = [TaskDataset(name, X, np.ones(len(X)), rng.standard_normal((3, 2)),
                             np.ones(3))
                 for name, X in [("a", rng.standard_normal((4, 2))), ("bad", X_train),
                                 ("c", rng.standard_normal((4, 2)))]]
        save_collection(TaskCollection(tasks, 2), tmp_path / "col")
        cfg = write_json(tmp_path / "run.json", {
            "method": "mst", "metric_name": "gradient", "budget": 30, "num_seeds": 1,
            "data_path": str(tmp_path / "col"),
        })
        code = main(["run", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if problem is None:  # the design refines
            assert (code, err) == (0, "")
            assert (tmp_path / "out" / "report.json").exists()
            return
        assert code == 2
        assert err.splitlines() == [err.strip()]  # one line, no warning or traceback
        assert err.startswith("error: task 'bad': ") and problem in err

    def test_individual_has_no_tree_file(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", {
            "method": "individual", "budget": 20, "num_seeds": 1, "seed": 2,
            "synthetic": {"num_tasks": 3, "dim": 2, "n_train": 8, "n_test": 4},
        })
        out = tmp_path / "run"
        assert main(["run", cfg, "--out", str(out), "--jobs", "1"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["tree_csv"] is None
        assert not (out / "tree.csv").exists()

    def test_total_steps_equals_budget_times_seeds(self, run_config, tmp_path):
        out = tmp_path / "run"
        main(["run", run_config, "--out", str(out), "--jobs", "1"])
        report = json.loads((out / "report.json").read_text())
        assert report["total_steps"] == 40 * 2

    def test_bad_config_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"method": "mst", "budget": 10})
        assert main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2


class TestVerify:
    def test_noiseless_default_passes(self, tmp_path):
        cfg = write_json(tmp_path / "v.json", {
            "mode": "noiseless", "num_chains": 5, "length": 3, "dim": 4,
            "n": 16, "budget_per_node": 6, "spacing": 2.0, "seed": 4,
        })
        out = tmp_path / "verify.json"
        assert main(["verify", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 5
        assert all(entry["satisfied"] for entry in doc)
        assert all(entry["empirical"] <= entry["bound"] + 1e-9 for entry in doc)

    def test_noisy_mode_exits_zero(self, tmp_path):
        cfg = write_json(tmp_path / "v.json", {
            "mode": "noisy", "num_chains": 2, "length": 2, "dim": 3, "n": 12,
            "budget_per_node": 5, "spacing": 1.0, "noise_sigma": 0.4,
            "noise_draws": 40, "seed": 6,
        })
        assert main(["verify", cfg, "--out", str(tmp_path / "out.json")]) == 0

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "v.json"
        bad.write_text("{not json")
        assert main(["verify", str(bad), "--out", str(tmp_path / "o.json")]) == 2

    def test_unknown_mode_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "v.json", {"mode": "psychic", "length": 2})
        assert main(["verify", cfg, "--out", str(tmp_path / "o.json")]) == 2


class TestBench:
    def test_row_count_and_header(self, tmp_path):
        cfg = write_json(tmp_path / "b.json", {
            "methods": ["individual", "star"], "budgets": [30], "num_seeds": 2,
            "seed": 8,
            "synthetic": {"num_tasks": 3, "dim": 2, "n_train": 10, "n_test": 5},
        })
        out = tmp_path / "bench"
        assert main(["bench", cfg, "--out", str(out), "--jobs", "1"]) == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "method,metric,B,seed,mean_rmse"
        assert len(lines) == 1 + 4  # 2 methods x 1 budget x 2 seeds

    def test_aggregate_matches_recomputation(self, tmp_path):
        from taskcascade.cascade import ExperimentConfig, run_experiment
        from taskcascade.tasks import SyntheticConfig

        synth = {"num_tasks": 3, "dim": 2, "n_train": 10, "n_test": 5,
                 "tau_within": 0.3, "noise_sigma": 0.1}
        cfg = write_json(tmp_path / "b.json", {
            "methods": ["mst"], "metrics": ["target"], "budgets": [25],
            "num_seeds": 3, "seed": 12, "synthetic": synth,
        })
        out = tmp_path / "bench"
        assert main(["bench", cfg, "--out", str(out), "--jobs", "1"]) == 0
        rows = (out / "bench.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[4]) for r in rows]

        report = run_experiment(ExperimentConfig(
            method="mst", metric_name="target", budget=25, num_seeds=3, seed=12,
            synthetic=SyntheticConfig(**synth),
        ))
        assert values == report.per_seed_mean_rmse
        assert np.mean(values) == pytest.approx(report.mean_rmse)

    def test_metric_column_names_the_metric_each_method_used(self, tmp_path):
        cfg = write_json(tmp_path / "b.json", {
            "methods": ["individual", "star", "mst"], "metrics": ["target"],
            "budgets": [30], "seed": 8,
            "synthetic": {"num_tasks": 3, "dim": 2, "n_train": 10, "n_test": 5},
        })
        out = tmp_path / "bench"
        assert main(["bench", cfg, "--out", str(out), "--jobs", "1"]) == 0
        rows = (out / "bench.csv").read_text().splitlines()[1:]
        # individual compares no tasks; star roots at the gradient medoid
        assert [row.split(",")[:2] for row in rows] == [
            ["individual", "none"], ["star", "gradient"], ["mst", "target"]]

    def test_manifest_records_the_resolved_seed(self, tmp_path):
        # a config without a seed runs at ExperimentConfig's default, as `run` does
        cfg = write_json(tmp_path / "b.json", {
            "methods": ["individual"], "budgets": [30], "num_seeds": 1,
            "synthetic": {"num_tasks": 3, "dim": 2, "n_train": 10, "n_test": 5},
        })
        for seed_args, seed in (([], 0), (["--seed", "7"], 7)):
            out = tmp_path / f"bench{seed}"
            assert main(["bench", cfg, "--out", str(out), "--jobs", "1", *seed_args]) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["resolved_seed"] == seed

    def test_missing_methods_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "b.json", {"budgets": [10]})
        assert main(["bench", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2

    def test_rerun_byte_identical(self, tmp_path):
        # bench's counterpart of TestRun.test_report_bytes_equal_at_jobs_1_2_3
        cfg = write_json(tmp_path / "b.json", {
            "methods": ["star", "mst"], "metrics": ["gradient"], "budgets": [20, 30],
            "num_seeds": 3, "seed": 21,
            "synthetic": {"num_tasks": 3, "dim": 2, "n_train": 8, "n_test": 4},
        })
        outs = []
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["bench", cfg, "--out", str(out), "--jobs", jobs]) == 0
            outs.append((out / "bench.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert len(outs[0].splitlines()) == 1 + 2 * 2 * 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _fresh_python(code, cwd=None):
    """Run Python on ``code`` in a new interpreter that turns a RuntimeWarning,
    such as numpy's overflow warnings, into an error, as the suite does."""
    import taskcascade

    env = {**os.environ, "PYTHONPATH": str(Path(taskcascade.__file__).parents[1])}
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *code],
                          capture_output=True, text=True, env=env, cwd=cwd)


def _cli(args, cwd):
    return _fresh_python(["-m", "taskcascade.cli", *args], cwd=cwd)


def _rejected(out, problem, output):
    """``out`` exited 2 with one stderr line that starts with ``problem``, and
    ``output`` was not written."""
    assert out.returncode == 2
    assert out.stderr.splitlines() == [out.stderr.strip()]  # no numpy warning
    assert out.stderr.startswith(problem), out.stderr
    assert not output.exists()


def test_valid_pipeline_writes_nothing_to_stderr(tmp_path, gen_config):
    run = write_json(tmp_path / "run.json", {
        "method": "mst", "metric_name": "mmd", "budget": 40, "num_seeds": 2,
        "data_path": "col"})
    verify = write_json(tmp_path / "verify.json", {"mode": "noiseless", "length": 3})
    for args in (["gen", gen_config, "--out", "col"],
                 ["dist", "col", "--metric", "gradient", "--out", "d.csv"],
                 ["tree", "d.csv", "--out", "t.csv"],
                 ["run", run, "--out", "out"],
                 ["verify", verify, "--out", "v.json"]):
        out = _cli(args, tmp_path)
        assert (out.returncode, out.stderr) == (0, ""), args
        assert out.stdout.startswith(("wrote ", "mst: ", "1/1 chains"))


@pytest.mark.parametrize("error, code", [
    (errors.ConfigError, 2), (errors.DataFormatError, 2), (errors.ShapeMismatchError, 2),
    (errors.DegenerateDesignError, 2), (errors.NonFiniteGramError, 2),
    (errors.GraphError, 2), (errors.InfeasibleBudgetError, 2),
    (errors.DivergenceError, 1),  # the one runtime failure
    (FileNotFoundError, 2), (IsADirectoryError, 2),  # a path of the wrong kind
])
def test_exit_code_follows_the_error_class(monkeypatch, capsys, error, code):
    from taskcascade import cli

    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_tree", fail)
    assert main(["tree", "d.csv", "--out", "t.csv"]) == code
    assert capsys.readouterr().err == "error: boom\n"


def test_package_import_loads_no_layer_until_a_name_is_used():
    out = _fresh_python(["-c", (
        "import sys, taskcascade\n"
        "print(sorted(m for m in sys.modules if m.startswith('taskcascade.')))\n"
        "from taskcascade import rmse, linmodel\n"
        "print(rmse is linmodel.rmse)\n"
        "print(all(getattr(taskcascade, n) is not None for n in taskcascade.__all__))\n"
    )])
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:3] == ["[]", "True", "True"]


def test_missing_package_attribute_raises_attribute_error():
    import taskcascade

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        taskcascade.nope


def _command_argv(tmp_path, gen_config, run_config):
    """The argv of every command, each on inputs made in ``tmp_path``: ``dist`` on
    a generated collection at ``tmp_path / "col"``, and ``run`` on synthetic data."""
    assert main(["gen", gen_config, "--out", str(tmp_path / "col")]) == 0
    (tmp_path / "dist.csv").write_text("a,b\n0.0,1.0\n1.0,0.0\n")
    verify_config = write_json(tmp_path / "verify.json", {
        "mode": "noisy", "length": 3, "noise_sigma": 0.5, "noise_draws": 20,
    })
    return {
        "gen": ["gen", gen_config, "--out", str(tmp_path / "gen.out")],
        "dist": ["dist", str(tmp_path / "col"), "--metric", "gradient",
                 "--out", str(tmp_path / "dist.out")],
        "tree": ["tree", str(tmp_path / "dist.csv"), "--method", "mst",
                 "--out", str(tmp_path / "tree.csv")],
        "run": ["run", run_config, "--out", str(tmp_path / "run.out")],
        "verify": ["verify", verify_config, "--out", str(tmp_path / "verify.out")],
    }


def _modules_after(argv, listing):
    """The names ``listing``, a generator expression over ``sys.modules``, gives
    after ``main(argv)`` has run in a fresh interpreter."""
    out = _fresh_python(["-c", (
        "import sys\n"
        "from taskcascade.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print(' '.join({listing}))\n"
    )])
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split("\n")[-2].split())


@pytest.mark.parametrize("command, unused", [
    ("gen", {"budget", "cascade", "distances", "graph", "linmodel", "theory"}),
    ("tree", {"budget", "cascade", "linmodel", "tasks", "theory"}),
    ("verify", {"budget", "cascade", "distances", "graph", "tasks"}),
    ("dist", {"budget", "cascade", "graph", "linmodel", "theory"}),
    ("run", {"theory"}),
])
def test_a_command_imports_only_the_layers_it_uses(tmp_path, gen_config, run_config,
                                                   command, unused):
    argv = _command_argv(tmp_path, gen_config, run_config)[command]
    loaded = _modules_after(argv, "m.split('.')[1] for m in sys.modules"
                                  " if m.startswith('taskcascade.')")
    # the layers the command runs, so an empty or wrong listing cannot pass
    used = {"gen": {"tasks"}, "dist": {"distances", "tasks"},
            "tree": {"distances", "graph"},
            "run": {"budget", "cascade", "distances", "graph", "linmodel", "tasks"},
            "verify": {"theory"}}
    assert used[command] <= loaded
    assert not loaded & unused


# A seed reaches hashlib and numpy.random only when a stream or a seed is drawn:
# synthetic data, verify's chains and noise, a random tree, mmd's random
# features and a Gaussian start. A loaded run of `individual`, `star` or `mst`
# on another metric, from a zero start, draws none.
@pytest.mark.parametrize("command, loaded_run, draws", [
    ("dist", None, False),
    ("tree", None, False),
    ("run", dict(method="mst", metric_name="gradient"), False),
    ("gen", None, True),
    ("verify", None, True),
    ("run", None, True),
    ("run", dict(method="random_tree"), True),
    ("run", dict(method="mst", metric_name="mmd"), True),
    ("run", dict(method="mst", metric_name="gradient", gaussian_init=True), True),
])
def test_only_a_command_that_draws_loads_hashlib_and_numpy_random(
        tmp_path, gen_config, run_config, command, loaded_run, draws):
    argv = _command_argv(tmp_path, gen_config, run_config)[command]
    if loaded_run is not None:
        config = write_json(tmp_path / "loaded.json", {
            "budget": 40, "num_seeds": 2, "seed": 9, "data_path": str(tmp_path / "col"),
            **loaded_run,
        })
        argv = ["run", config, "--out", str(tmp_path / "loaded.out")]
    loaded = _modules_after(argv, "m for m in ('hashlib', '_hashlib', 'numpy.random')"
                                  " if m in sys.modules")
    if draws:
        assert "numpy.random" in loaded  # so an empty listing cannot pass
    else:
        assert not loaded


def test_module_entry_exits_with_the_command_code(tmp_path):
    (tmp_path / "bad.csv").write_text("a,b\n0.0,abc\n1.0,0.0\n")
    (tmp_path / "good.csv").write_text("a,b\n0.0,1.0\n1.0,0.0\n")
    bad = _fresh_python(["-m", "taskcascade.cli", "tree", "bad.csv", "--out", "t.csv"],
                        cwd=tmp_path)
    assert bad.returncode == 2
    assert "bad.csv: non-numeric cell on line 2" in bad.stderr
    good = _fresh_python(["-m", "taskcascade.cli", "tree", "good.csv", "--out", "t.csv"],
                         cwd=tmp_path)
    assert good.returncode == 0, good.stderr
    assert main(["tree", str(tmp_path / "good.csv"), "--out", str(tmp_path / "u.csv")]) == 0
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "u.csv").read_bytes()


@pytest.mark.parametrize("metric", ["gradient", "model"])
def test_dist_of_an_overflowing_task_exits_2_naming_it(tmp_path, metric):
    rng = np.random.default_rng(0)
    tasks = [TaskDataset(name, X, rng.standard_normal(6), X, np.ones(6))
             for name, X in [("a", rng.standard_normal((6, 3))),
                             ("bad", np.full((6, 3), 1e200)),
                             ("c", rng.standard_normal((6, 3)))]]
    save_collection(TaskCollection(tasks, 3), tmp_path / "col")
    out = _cli(["dist", "col", "--metric", metric, "--out", "d.csv"], tmp_path)
    _rejected(out, "error: task 'bad': ", tmp_path / "d.csv")
    assert "not finite" in out.stderr


def _collection_with(tmp_path, **t1):
    """A 3-task collection on disk whose task t1 has the given splits."""
    rng = np.random.default_rng(0)
    tasks = []
    for i in range(3):
        splits = dict(X_train=rng.standard_normal((6, 3)), y_train=rng.standard_normal(6),
                      X_test=rng.standard_normal((4, 3)), y_test=rng.standard_normal(4))
        tasks.append(TaskDataset(f"t{i}", **{**splits, **(t1 if i == 1 else {})}))
    save_collection(TaskCollection(tasks, 3), tmp_path / "col")


@pytest.mark.parametrize("args", [
    ["dist", "col", "--metric", "sym_kl", "--out", "out"],
    ["dist", "col", "--metric", "gradient", "--out", "out"],
    ["run", "run.json", "--out", "out"],
])
def test_a_header_only_training_csv_exits_2_naming_the_task(tmp_path, args):
    _collection_with(tmp_path)
    (tmp_path / "col" / "t1_train.csv").write_text("x1,x2,x3,y\n")
    write_json(tmp_path / "run.json", {"method": "mst", "metric_name": "gradient",
                                       "budget": 30, "num_seeds": 2, "data_path": "col"})
    _rejected(_cli(args, tmp_path), "error: task 't1': the training split has no rows",
              tmp_path / "out")


@pytest.mark.parametrize("metric, problem", [
    ("model", "error: task 't1': X^T y is not finite"),
    ("target", "error: pair ('t0', 't1'): distance is inf, not finite"),
])
def test_dist_of_overflowing_targets_exits_2_naming_the_task(tmp_path, metric, problem):
    _collection_with(tmp_path, y_train=np.full(6, 1e308))
    out = _cli(["dist", "col", "--metric", metric, "--out", "d.csv"], tmp_path)
    _rejected(out, problem, tmp_path / "d.csv")


@pytest.mark.parametrize("metric, params, problem", [
    ("mmd", {}, "its mmd summary is not finite"),
    ("gauss_meancov", {}, "its gauss_meancov summary is not finite"),
    *[(metric, {"standardize": True}, "the standard deviation of X is not finite")
      for metric in ("feature", "mmd", "cka", "gauss_meancov")],
])
def test_dist_of_overflowing_features_exits_2_naming_the_task(tmp_path, metric, params,
                                                              problem):
    X = np.random.default_rng(1).standard_normal((6, 3))
    _collection_with(tmp_path, X_train=X * 1e200)
    write_json(tmp_path / "params.json", params)
    out = _cli(["dist", "col", "--metric", metric, "--params", "params.json",
                "--out", "d.csv"], tmp_path)
    _rejected(out, f"error: task 't1': {problem}", tmp_path / "d.csv")


@pytest.mark.parametrize("method, t1, problem", [
    # refinement's X^T y overflows, for a root and for a cascade
    ("individual", {"y_train": np.full(6, 1e308)}, "task 't1': X^T y is not finite"),
    ("mst", {"y_train": np.full(6, 1e308)}, "task 't1': X^T y is not finite"),
    ("individual", {"y_test": np.full(4, 1e300)}, "task 't1': test RMSE is inf, not finite"),
    ("individual", {"X_test": np.empty((0, 3)), "y_test": np.empty(0)},
     "task 't1' has no test split to evaluate"),
    ("mst", {"X_train": np.ones((8, 3)), "y_train": np.ones(8)},
     "pair ('t0', 't1'): Euclidean distance needs equal lengths, got 6 and 8"),
])
def test_run_of_bad_input_exits_2_naming_the_task(tmp_path, method, t1, problem):
    _collection_with(tmp_path, **t1)
    metric = "target" if "pair" in problem else "feature"
    cfg = write_json(tmp_path / "run.json", {
        "method": method, "metric_name": metric, "budget": 30, "num_seeds": 2,
        "data_path": "col",
    })
    _rejected(_cli(["run", cfg, "--out", "out"], tmp_path), f"error: {problem}",
              tmp_path / "out")


@pytest.mark.parametrize("metric, t1, value", [
    # t1's own distances are finite; its median bandwidth with any task is not
    ("mmd", {"X_train": np.random.default_rng(1).standard_normal((6, 3)) + 1e155}, "inf"),
    # t1's targets span -1e308 to 1e308, so no joint range of its pairs is finite
    ("sym_kl", {"y_train": np.resize([1e308, -1e308], 6)}, "nan"),
    ("js", {"y_train": np.resize([1e308, -1e308], 6)}, "nan"),
])
def test_dist_of_a_pair_whose_scale_overflows_exits_2_naming_it(tmp_path, metric, t1,
                                                                 value):
    _collection_with(tmp_path, **t1)
    out = _cli(["dist", "col", "--metric", metric, "--out", "d.csv"], tmp_path)
    _rejected(out, f"error: pair ('t0', 't1'): distance is {value}, not finite",
              tmp_path / "d.csv")


@pytest.mark.parametrize("header, problem", [
    ("a,a,b", "repeats the id 'a'"), ("a,,b", "has an empty id ''"),
])
def test_tree_of_a_matrix_with_a_bad_id_exits_2_naming_it(tmp_path, header, problem):
    (tmp_path / "d.csv").write_text(f"{header}\n0,1,1\n1,0,1\n1,1,0\n")
    _rejected(_cli(["tree", "d.csv", "--out", "t.csv"], tmp_path),
              f"error: d.csv: line 1 {problem}", tmp_path / "t.csv")


def test_bench_with_no_metrics_exits_2_before_any_run(tmp_path):
    cfg = write_json(tmp_path / "b.json", {**SMALL_BENCH, "methods": ["individual", "mst"],
                                           "metrics": []})
    _rejected(_cli(["bench", cfg, "--out", "o"], tmp_path),
              "error: bench config needs non-empty 'methods', 'metrics'", tmp_path / "o")


def test_dist_of_unequal_target_lengths_exits_2_naming_the_pair(tmp_path):
    _collection_with(tmp_path, X_train=np.ones((8, 3)), y_train=np.ones(8))
    out = _cli(["dist", "col", "--metric", "target", "--out", "d.csv"], tmp_path)
    _rejected(out, "error: pair ('t0', 't1'): Euclidean distance needs equal lengths",
              tmp_path / "d.csv")


@pytest.mark.parametrize("key", ["tau_between", "tau_within"])
def test_gen_of_an_overflowing_scale_exits_2_naming_the_task(tmp_path, key):
    cfg = write_json(tmp_path / "gen.json", {"num_tasks": 3, "dim": 3, "n_train": 8,
                                             "num_clusters": 2, key: 1e308})
    _rejected(_cli(["gen", cfg, "--out", "col"], tmp_path),
              "error: task 'task0': non-finite entry in y_train", tmp_path / "col")


@pytest.mark.parametrize("command, split_csv, row, cell", [
    (["dist", "col", "--metric", "gradient", "--out", "out"], "t1_train.csv", 4, "nan"),
    (["run", "run.json", "--out", "out"], "t2_test.csv", 3, "1e999"),
])
def test_a_non_finite_cell_exits_2_naming_the_file_and_row(tmp_path, command, split_csv,
                                                          row, cell):
    _collection_with(tmp_path)
    path = tmp_path / "col" / split_csv
    lines = path.read_text().splitlines()
    lines[row - 1] = ",".join([cell, *lines[row - 1].split(",")[1:]])
    path.write_text("\n".join(lines))
    write_json(tmp_path / "run.json", {"method": "mst", "metric_name": "gradient",
                                       "budget": 30, "data_path": "col"})
    _rejected(_cli(command, tmp_path),
              f"error: task '{split_csv[:2]}': non-finite cell in row {row} of {split_csv}",
              tmp_path / "out")


def test_verify_of_an_overflowing_spacing_exits_2_naming_it(tmp_path):
    cfg = write_json(tmp_path / "verify.json", {"mode": "noiseless", "length": 3, "dim": 3,
                                                "n": 8, "spacing": 1e308})
    _rejected(_cli(["verify", cfg, "--out", "v.json"], tmp_path),
              "error: spacing 1e+308 is too large: chain task 1's", tmp_path / "v.json")


def test_noisy_verify_below_the_rounding_of_its_errors_exits_2(tmp_path):
    cfg = write_json(tmp_path / "verify.json", {"mode": "noisy", "length": 5, "spacing": 1e58,
                                                "noise_sigma": 0.36, "noise_draws": 50})
    _rejected(_cli(["verify", cfg, "--out", "v.json"], tmp_path),
              "error: spacing 1e+58 is too large for noise_sigma 0.36", tmp_path / "v.json")


@pytest.mark.parametrize("method", ["individual", "mst"])
def test_run_on_a_subnormal_design_exits_2_naming_the_task(tmp_path, method):
    # X^T X of entries 1e-160 is subnormal, and 1/lambda_max would overflow
    _collection_with(tmp_path, X_train=np.full((6, 3), 1e-160))
    cfg = write_json(tmp_path / "run.json", {
        "method": method, "metric_name": "target", "budget": 30, "num_seeds": 1,
        "data_path": "col",
    })
    _rejected(_cli(["run", cfg, "--out", "out"], tmp_path),
              "error: task 't1': power iteration's estimate", tmp_path / "out")


def _succeeded(out, output):
    """``out`` exited 0 with nothing on stderr, no numpy warning either, and
    wrote ``output``."""
    assert (out.returncode, out.stderr) == (0, ""), out.stderr
    assert output.exists()


@pytest.mark.parametrize("method", ["individual", "mst"])
def test_run_on_a_tiny_scaled_task_succeeds(tmp_path, method):
    # X and y of t1 times 1e-150 pose t1's problem at another scale; its step
    # size used to come from power iteration's first iterate, which diverged
    rng = np.random.default_rng(1)
    _collection_with(tmp_path, X_train=rng.standard_normal((6, 3)) * 1e-150,
                     y_train=rng.standard_normal(6) * 1e-150)
    cfg = write_json(tmp_path / "run.json", {
        "method": method, "metric_name": "gradient", "budget": 30, "num_seeds": 1,
        "data_path": "col",
    })
    _succeeded(_cli(["run", cfg, "--out", "out"], tmp_path), tmp_path / "out" / "report.json")


@pytest.mark.parametrize("method", ["individual", "mst"])
def test_run_of_a_task_whose_solution_overflows_exits_2_naming_it(tmp_path, method):
    # X times 1e-150 and y times 1e300 put t1's least-squares solution near 1e450
    rng = np.random.default_rng(0)
    _collection_with(tmp_path, X_train=rng.standard_normal((8, 3)) * 1e-150,
                     y_train=rng.standard_normal(8) * 1e300)
    cfg = write_json(tmp_path / "run.json", {
        "method": method, "metric_name": "gradient", "budget": 30, "num_seeds": 1,
        "data_path": "col",
    })
    _rejected(_cli(["run", cfg, "--out", "out"], tmp_path),
              "error: task 't1': the refined parameters are not finite", tmp_path / "out")


@pytest.mark.parametrize("metric", ["sym_kl", "js"])
def test_dist_of_targets_too_close_for_distinct_bins_exits_2_naming_the_pair(tmp_path,
                                                                            metric):
    # targets of 0, 5e-324 and 1e-323 span too few floats for 32 bin edges
    rng = np.random.default_rng(0)
    tasks = [TaskDataset(f"t{i}", rng.standard_normal((8, 3)), rng.integers(0, 3, 8) * 5e-324,
                         np.empty((0, 3)), np.empty(0)) for i in range(3)]
    save_collection(TaskCollection(tasks, 3), tmp_path / "col")
    _rejected(_cli(["dist", "col", "--metric", metric, "--out", "d.csv"], tmp_path),
              "error: pair ('t0', 't1'): distance is nan, not finite", tmp_path / "d.csv")


def test_dist_gauss_meancov_of_one_feature_succeeds(tmp_path):
    cfg = write_json(tmp_path / "gen.json", {"num_tasks": 3, "dim": 1, "n_train": 8})
    assert _cli(["gen", cfg, "--out", "col"], tmp_path).returncode == 0
    _succeeded(_cli(["dist", "col", "--metric", "gauss_meancov", "--out", "d.csv"],
                    tmp_path), tmp_path / "d.csv")


def test_tree_of_a_matrix_whose_row_sums_overflow_roots_at_the_true_medoid(tmp_path):
    # row sums 3e308, 2.5e308 and 2.5e308 all overflow; the medoid is task b
    (tmp_path / "d.csv").write_text(
        "a,b,c\n0,1.5e308,1.5e308\n1.5e308,0,1e308\n1.5e308,1e308,0\n")
    out = _cli(["tree", "d.csv", "--out", "t.csv"], tmp_path)
    _succeeded(out, tmp_path / "t.csv")
    assert read_tree_csv(tmp_path / "t.csv")[0] == "b"


def test_negative_ridge_lambda_exits_2_naming_the_key(tmp_path):
    _collection_with(tmp_path)
    params = write_json(tmp_path / "params.json", {"ridge_lambda": -1.0})
    _rejected(_cli(["dist", "col", "--metric", "model", "--params", "params.json",
                    "--out", "d.csv"], tmp_path),
              "error: ridge_lambda must be nonnegative", tmp_path / "d.csv")
    cfg = write_json(tmp_path / "run.json", {
        "method": "mst", "metric_name": "model", "budget": 30, "data_path": "col",
        "distance_params": {"ridge_lambda": -1.0},
    })
    _rejected(_cli(["run", cfg, "--out", "out"], tmp_path),
              "error: ridge_lambda must be nonnegative", tmp_path / "out")


@pytest.mark.parametrize("key, value", [
    ("dim", "abc"), ("dim", 2.7), ("dim", "2"), ("dim", True), ("tasks", []),
])
def test_bad_manifest_exits_2_naming_it(tmp_path, key, value):
    _collection_with(tmp_path)
    manifest = json.loads((tmp_path / "col" / "manifest.json").read_text())
    write_json(tmp_path / "col" / "manifest.json", {**manifest, key: value})
    problem = f"error: {Path('col', 'manifest.json')}: {key!r} must be"
    _rejected(_cli(["dist", "col", "--metric", "gradient", "--out", "d.csv"], tmp_path),
              problem, tmp_path / "d.csv")
    for method in ("individual", "mst"):
        cfg = write_json(tmp_path / "run.json", {
            "method": method, "metric_name": "gradient", "budget": 30, "data_path": "col",
        })
        _rejected(_cli(["run", cfg, "--out", "out"], tmp_path), problem, tmp_path / "out")


def _path_error_inputs(tmp_path, gen_config):
    """A collection, its matrix, verify and run configs and a plain file
    ``afile`` in ``tmp_path``: what the path and text cases below read."""
    assert main(["gen", gen_config, "--out", str(tmp_path / "col")]) == 0
    assert main(["dist", str(tmp_path / "col"), "--metric", "gradient",
                 "--out", str(tmp_path / "d.csv")]) == 0
    write_json(tmp_path / "verify.json", SMALL_CHAIN)
    write_json(tmp_path / "run.json", {"method": "individual", "budget": 30,
                                       "data_path": "col"})
    (tmp_path / "afile").write_text("kept\n")


@pytest.mark.parametrize("argv, named", [
    # a missing input
    (["tree", "missing.csv", "--out", "t.csv"], "No such file or directory: 'missing.csv'"),
    # an --out in a missing directory
    (["tree", "d.csv", "--out", "nodir/t.csv"], "No such file or directory: 'nodir/t.csv'"),
    (["dist", "col", "--metric", "gradient", "--out", "nodir/d.csv"],
     "No such file or directory: 'nodir/d.csv'"),
    (["verify", "verify.json", "--out", "nodir/v.json"],
     "No such file or directory: 'nodir/v.json'"),
    # a directory where a file is expected
    (["dist", "col", "--metric", "gradient", "--out", "col"], "Is a directory: 'col'"),
    (["tree", "d.csv", "--out", "col"], "Is a directory: 'col'"),
    (["tree", "col", "--out", "t.csv"], "Is a directory: 'col'"),
    # an existing file as an --out directory
    (["gen", "gen.json", "--out", "afile"], "File exists: 'afile'"),
    (["run", "run.json", "--out", "afile"], "File exists: 'afile'"),
])
def test_a_path_error_exits_2_with_one_error_line(tmp_path, gen_config, argv, named):
    _path_error_inputs(tmp_path, gen_config)
    before = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    out = _cli(argv, tmp_path)
    _rejected(out, "error: [Errno ", tmp_path / "nodir")
    assert named in out.stderr
    assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("command, config", [
    ("run", {"method": "individual", "budget": 30, "synthetic": {"num_tasks": 3}}),
    ("bench", {"methods": ["individual"], "budgets": [30], "synthetic": {"num_tasks": 3}}),
])
def test_an_out_that_is_a_file_fails_before_the_first_replicate(tmp_path, monkeypatch,
                                                                capsys, command, config):
    from taskcascade import cascade

    def no_replicate(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cascade, "run_experiment", no_replicate)
    cfg = write_json(tmp_path / "c.json", config)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    with pytest.raises(FileExistsError) as mkdir_error:
        afile.mkdir()
    assert main([command, cfg, "--out", str(afile)]) == 2
    assert capsys.readouterr().err == f"error: {mkdir_error.value}\n"
    assert afile.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == [afile, tmp_path / "c.json"]


@pytest.mark.parametrize("argv, target, problem", [
    (["gen", "gen.json"], "gen.json", "malformed JSON in gen.json"),
    (["dist", "col", "--metric", "gradient"], Path("col", "manifest.json"),
     f"malformed {Path('col', 'manifest.json')}"),
    (["dist", "col", "--metric", "gradient"], Path("col", "task1_train.csv"),
     f"task 'task1': {Path('col', 'task1_train.csv')} is not text"),
    (["tree", "d.csv"], "d.csv", "d.csv: not text"),
])
def test_a_file_that_is_not_text_exits_2_naming_it(tmp_path, gen_config, argv, target,
                                                   problem):
    _path_error_inputs(tmp_path, gen_config)
    path = tmp_path / target
    path.write_bytes(path.read_bytes() + b"\xff")
    out = _cli([*argv, "--out", "out"], tmp_path)
    _rejected(out, f"error: {problem}: ", tmp_path / "out")
    assert "can't decode byte 0xff" in out.stderr


def test_run_without_jobs_never_imports_the_process_pool(tmp_path):
    cfg = write_json(tmp_path / "run.json", {**SMALL_RUN, "num_seeds": 3})
    out = _fresh_python(["-c", (
        "import sys\n"
        "from taskcascade.cli import main\n"
        f"assert main(['run', {cfg!r}, '--out', 'out']) == 0\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules))\n"
    )], cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def test_cli_import_leaves_the_process_pool_unloaded():
    # Only run --jobs > 1 uses the pool, so no other command pays its import.
    code = (
        "import sys\n"
        "import taskcascade.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules))\n"
    )
    out = _fresh_python(["-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


SMALL_RUN = {"method": "mst", "metric_name": "gradient", "budget": 40, "num_seeds": 2,
             "synthetic": {"num_tasks": 4, "dim": 3, "n_train": 12, "n_test": 6}}
SMALL_BENCH = {"methods": ["mst"], "metrics": ["gradient"], "budgets": [40],
               "synthetic": SMALL_RUN["synthetic"]}
SMALL_CHAIN = {"mode": "noiseless", "length": 2}


@pytest.mark.parametrize("argv, config, named", [
    (["gen", "{cfg}"], {"num_tasks": "5"}, "'num_tasks'"),
    (["run", "{cfg}"], {**SMALL_RUN, "budget": "50"}, "'budget'"),
    (["run", "{cfg}"], {**SMALL_RUN, "num_seeds": 2.5}, "'num_seeds'"),
    (["run", "{cfg}"], {**SMALL_RUN, "budget": 3}, "budget 3"),
    (["run", "{cfg}"], {**SMALL_RUN, "scheme": None}, "'scheme'"),
    (["run", "{cfg}"], {**SMALL_RUN, "scheme": {"alpha": "x"}}, "'alpha'"),
    (["run", "{cfg}"], {**SMALL_RUN, "seed": True}, "'seed'"),
    (["run", "{cfg}", "--jobs", "0"], SMALL_RUN, "--jobs"),
    (["run", "{cfg}", "--jobs", "x"], SMALL_RUN, "--jobs"),
    (["verify", "{cfg}"], {**SMALL_CHAIN, "length": "3"}, "'length'"),
    (["verify", "{cfg}"], {**SMALL_CHAIN, "num_chains": "x"}, "num_chains"),
    (["verify", "{cfg}"], {**SMALL_CHAIN, "num_chains": 2.7}, "num_chains"),
    (["bench", "{cfg}"], {**SMALL_BENCH, "budgets": 5}, "'budgets'"),
    (["bench", "{cfg}"], {**SMALL_BENCH, "metrics": ["gradient", "nope"]}, "'nope'"),
    (["bench", "{cfg}", "--jobs", "0"], SMALL_BENCH, "--jobs"),
    (["dist", "{col}", "--metric", "gradient", "--params", "{cfg}"], {"rff_dim": "8"},
     "'rff_dim'"),
    (["run", "{cfg}"],
     {**SMALL_RUN, "scheme": {"kind": "depth_increasing", "alpha": float("nan")}},
     "'alpha'"),
    (["verify", "{cfg}"], {**SMALL_CHAIN, "spacing": float("nan")}, "'spacing'"),
    (["gen", "{cfg}"], {"num_tasks": 4, "tau_within": float("inf")}, "'tau_within'"),
    (["bench", "{cfg}"], {**SMALL_BENCH, "metrics": []}, "'metrics'"),
    (["run", "{cfg}"], {**SMALL_RUN, "budget": 10**20}, "budget must be at most 2**53"),
    (["bench", "{cfg}"], {**SMALL_BENCH, "budgets": [40, 2**53 + 1]},
     "budget must be at most 2**53"),
    (["run", "{cfg}"], {**SMALL_RUN, "synthetic": {**SMALL_RUN["synthetic"], "seed": 99}},
     "synthetic.seed"),
    (["bench", "{cfg}"], {**SMALL_BENCH, "distance_params": {"seed": 99}},
     "distance_params.seed"),
    (["bench", "{cfg}"], {**SMALL_BENCH, "budgets": [10, 10]}, "'budgets' repeats 10"),
    (["bench", "{cfg}"], {**SMALL_BENCH, "methods": ["mst", "mst"]},
     "'methods' repeats \"mst\""),
    (["bench", "{cfg}"], {**SMALL_BENCH, "metrics": ["gradient", "model", "gradient"]},
     "'metrics' repeats \"gradient\""),
])
def test_bad_input_exits_2_with_one_error_line(argv, config, named, gen_config, tmp_path,
                                               capsys):
    col = tmp_path / "col"
    assert main(["gen", gen_config, "--out", str(col)]) == 0
    capsys.readouterr()
    cfg = write_json(tmp_path / "config.json", config)
    out = tmp_path / "out"
    argv = [a.format(cfg=cfg, col=col) for a in argv] + ["--out", str(out)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0], err
    assert "Traceback" not in err
    assert not out.exists()


def test_bench_checks_the_whole_sweep_before_any_run(tmp_path, monkeypatch):
    from taskcascade import cascade

    runs = []
    monkeypatch.setattr(cascade, "run_experiment", lambda *a, **k: runs.append(a))
    cfg = write_json(tmp_path / "b.json", {**SMALL_BENCH, "budgets": [40, 0]})
    assert main(["bench", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"]) == 2
    assert runs == []


def test_readme_config_examples_build():
    import dataclasses

    from taskcascade.cascade import ExperimentConfig
    from taskcascade.cli import _build
    from taskcascade.tasks import SyntheticConfig
    from taskcascade.theory import ChainConfig

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config schemas")[1].split("\n### ")[0]
    gen, run, verify = [json.loads(block.split("```")[0])
                        for block in section.split("```json")[1:]]
    assert verify.pop("mode") in ("noiseless", "noisy")
    assert type(verify.pop("num_chains")) is int
    for cls, example, what in ((SyntheticConfig, gen, "synthetic"),
                               (ExperimentConfig, run, "experiment"),
                               (ChainConfig, verify, "chain")):
        echo = dataclasses.asdict(_build(cls, example, what))
        for key, value in example.items():  # a nested config adds its defaults
            if isinstance(value, dict):
                assert value.items() <= echo[key].items()
            else:
                assert echo[key] == value
