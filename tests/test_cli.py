"""CLI commands: artifacts, determinism, stage composition, exit codes."""

import base64
import csv
import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import pipeline_env

import microwrpo
from microwrpo import cli, datagen, objectives, pipeline, trainer, verify
from microwrpo.config import default_config_dict, load_config
from microwrpo.errors import NumericError
from microwrpo.policy import (
    PolicyModel,
    default_vocabulary,
    load_checkpoint,
    parameter_hash,
    save_checkpoint,
)

MINI_CONFIG = {
    "task": {"n_prompts": 24, "n_content_tokens": 6, "prompt_length": 2},
    "ensemble": [{"name": "solo", "sharpness": 6.0, "noise": 0.3}],
    "sampling": {"n_samples": 2, "max_length": 8},
    "po": {"eval_holdout_fraction": 0.2},
    "eval": {"n_prompts": 10},
}


def write_config(tmp_path, overrides, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


def dir_state(out):
    """{file name: (bytes, mtime)} of the directory ``out``; empty if it is absent."""
    if not out.exists():
        return {}
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}


class TestGenData:
    def test_minimal_config_writes_expected_quadruples(self, tmp_path):
        cfg = {
            "task": {"n_prompts": 4, "n_content_tokens": 6, "prompt_length": 2},
            "ensemble": [{"name": "one", "sharpness": 5.0, "noise": 0.5}],
            "sampling": {"n_samples": 2, "max_length": 8},
            "eval": {"n_prompts": 10},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert run_cli("gen-data", "--config", path, "--out", str(out)) == 0
        quads = datagen.read_quadruples(out / "dataset.jsonl", default_vocabulary(6))
        assert len(quads) == 4
        assert (out / "attribution.csv").exists()
        assert (out / "deviation.json").exists()
        assert (out / "config.resolved.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path, MINI_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("gen-data", "--config", path, "--out", str(out1), "--seed", "5")
        run_cli("gen-data", "--config", path, "--out", str(out2), "--seed", "5")
        for name in ("dataset.jsonl", "attribution.csv", "deviation.json", "target_init.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_unknown_config_key_exit_2(self, tmp_path):
        path = write_config(tmp_path, {"task": {"n_promptz": 4}})
        assert run_cli("gen-data", "--config", path) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sampling": {"temperature": 0}},
            {"sampling": {"top_p": 1.5}},
            {"sampling": {"max_length": 0}},
            {"objective": {"kind": "x"}},
            {"objective": {"beta": 0}},
            {"schedule": {"kind": "x"}},
            {"schedule": {"target": 1.5}},
            {"schedule": {"total_steps": 0}},
            {"sft": {"optimizer": {"kind": "x"}}},
            {"po": {"optimizer": {"schedule": "x"}}},
            {"po": {"optimizer": {"step_size": 0}}},
            {"sft": {"optimizer": {"warmup_fraction": 1.0}}},
            {"task": {"n_content_tokens": 1}},
            {"objective": {"kind": "wrpo_simpo", "gamma": None}},
            {"objective": {"kind": "ipo", "tau": None}},
            {"objective": {"pairing": "x"}},
        ],
        ids=[
            "temperature-0", "top_p-1.5", "max_length-0", "objective-kind", "beta-0",
            "schedule-kind", "target-1.5", "total_steps-0", "sft-optimizer-kind",
            "po-lr-schedule", "po-step_size-0", "sft-warmup_fraction-1", "n_content_tokens-1",
            "simpo-gamma-null", "ipo-tau-null", "objective-pairing",
        ],
    )
    def test_invalid_value_exit_2(self, tmp_path, overrides):
        path = write_config(tmp_path, overrides)
        assert run_cli("gen-data", "--config", path, "--out", str(tmp_path / "run")) == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", [64, 2**64], ids=["64", "2**64"])
    @pytest.mark.parametrize("field", ["n_content_tokens", "context_order", "prompt_length"])
    def test_oversized_task_exit_2_quickly(self, tmp_path, field, value):
        path = write_config(tmp_path, {"task": {**MINI_CONFIG["task"], field: value}})
        start = time.monotonic()
        assert run_cli("gen-data", "--config", path, "--out", str(tmp_path / "run")) == 2
        assert time.monotonic() - start < 1.0
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", [2**17 + 1, 10**12], ids=["2**17+1", "10**12"])
    def test_oversized_max_length_exit_2_quickly(self, tmp_path, value):
        overrides = {"sampling": {"max_length": value}, "task": {"n_prompts": 2}}
        path = write_config(tmp_path, overrides)
        start = time.monotonic()
        assert run_cli("gen-data", "--config", path, "--out", str(tmp_path / "run")) == 2
        assert time.monotonic() - start < 1.0
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section", ["task", "eval"])
    def test_more_prompts_than_the_prompt_space_exit_2(self, tmp_path, section):
        # The default 8 content tokens and prompt length 3 give 512 distinct prompts.
        path = write_config(tmp_path, {section: {"n_prompts": 100000}})
        assert run_cli("gen-data", "--config", path, "--out", str(tmp_path / "run")) == 2
        assert not (tmp_path / "run").exists()

    def test_integer_literal_too_long_to_convert_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": ' + "9" * 5000 + "}")
        assert run_cli("gen-data", "--config", str(path), "--out", str(tmp_path / "run")) == 2

    def test_invalid_objective_value_exit_2(self, tmp_path):
        path = write_config(tmp_path, {"objective": {"tau": -1.0}})
        assert run_cli("gen-data", "--config", path, "--out", str(tmp_path / "run")) == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"task": {"n_prompts": "30"}},
            {"ensemble": [{"name": "solo", "sharpness": "x", "noise": 0.3}]},
            {"sampling": {"n_samples": True}},
            {"data": {"include_yls": "no"}},
            {"objective": {"beta": True}},
            {"task": 5},
            {"out_dir": 5},
            {"objective": {"kind": 3}},
            {"schedule": {"total_steps": 1.5}},
        ],
        ids=[
            "str-int", "str-sharpness", "bool-int", "str-bool", "bool-float", "int-section",
            "int-out_dir", "int-kind", "float-total_steps",
        ],
    )
    def test_wrong_value_type_exit_2(self, tmp_path, monkeypatch, overrides):
        # No --out, which would replace a wrong out_dir; relative paths land in tmp_path.
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, overrides)
        assert run_cli("gen-data", "--config", path) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize(
        "section, key, value",
        [("objective", "tau", None), ("schedule", "total_steps", 7)],
        ids=["null-tau", "int-total_steps"],
    )
    def test_nullable_leaf_accepted(self, tmp_path, section, key, value):
        path = write_config(tmp_path, {**MINI_CONFIG, section: {key: value}})
        out = tmp_path / "run"
        assert run_cli("gen-data", "--config", path, "--out", str(out)) == 0
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved[section][key] == value

    def test_default_config_mirrors_reference_knobs(self):
        d = default_config_dict()
        assert d["sampling"]["n_samples"] == 5
        assert d["sampling"]["top_p"] == 0.95
        assert d["sampling"]["temperature"] == 0.8
        assert d["objective"]["beta"] == 0.01
        assert d["schedule"] == {"kind": "linear", "target": 0.1, "total_steps": None}
        assert d["data"]["split_fraction"] == pytest.approx(1 / 3)
        assert d["po"]["optimizer"]["warmup_fraction"] == 0.1
        assert d["po"]["epochs"] == 1 and d["sft"]["epochs"] == 1

    def test_typed_config_fields_are_the_section_keys(self):
        # objective_config() and optimizer_config() pass a section's keys as fields.
        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        d = default_config_dict()
        assert names(objectives.ObjectiveConfig) == set(d["objective"])
        for stage in ("sft", "po"):
            assert names(trainer.OptimizerConfig) == set(d[stage]["optimizer"])


class TestTrain:
    def test_po_without_dataset_exit_3(self, tmp_path):
        path = write_config(tmp_path, MINI_CONFIG)
        assert run_cli("train", "--config", path, "--stage", "po", "--out", str(tmp_path / "x")) == 3

    def test_stage_composition_matches_full(self, tmp_path):
        path = write_config(tmp_path, MINI_CONFIG)
        out1, out2 = tmp_path / "staged", tmp_path / "full"
        for out in (out1, out2):
            run_cli("gen-data", "--config", path, "--out", str(out), "--seed", "2")
        assert run_cli("train", "--config", path, "--stage", "sft", "--out", str(out1), "--seed", "2") == 0
        assert run_cli("train", "--config", path, "--stage", "po", "--out", str(out1), "--seed", "2") == 0
        assert run_cli("train", "--config", path, "--stage", "full", "--out", str(out2), "--seed", "2") == 0
        h1 = parameter_hash(load_checkpoint(out1 / "target_po.json"))
        h2 = parameter_hash(load_checkpoint(out2 / "target_po.json"))
        assert h1 == h2
        assert (out1 / "po_telemetry.jsonl").read_bytes() == (out2 / "po_telemetry.jsonl").read_bytes()

    def test_train_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path, MINI_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            run_cli("gen-data", "--config", path, "--out", str(out), "--seed", "4")
            run_cli("train", "--config", path, "--stage", "full", "--out", str(out), "--seed", "4")
        for name in ("target_sft.json", "target_po.json", "po_telemetry.jsonl", "metrics.json", "po_dataset.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_fixture_snapshot_is_the_cli_sft_checkpoint(self, tmp_path):
        out = tmp_path / "default"
        assert run_cli("gen-data", "--out", str(out), "--seed", "0") == 0
        assert run_cli("train", "--stage", "sft", "--out", str(out), "--seed", "0") == 0
        env = pipeline_env(0)
        cli_hash = parameter_hash(load_checkpoint(out / "target_sft.json"))
        assert parameter_hash(env["snapshot"]) == cli_hash
        assert (len(env["po_train"]), len(env["po_heldout"])) == (150, 50)

    def test_default_objective_runs_end_to_end_quickly(self, tmp_path):
        # the reference configuration on 300 prompts, one CPU core
        path = write_config(tmp_path, {})
        out = tmp_path / "paperish"
        start = time.monotonic()
        assert run_cli("gen-data", "--config", path, "--out", str(out), "--seed", "1") == 0
        assert run_cli("train", "--config", path, "--stage", "full", "--out", str(out), "--seed", "1") == 0
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"pipeline took {elapsed:.1f}s"
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["objective"] == "wrpo_dpo"
        assert 0 <= metrics["win_rate"] <= 1

    def test_dpo_baseline_configuration(self, tmp_path):
        cfg = dict(MINI_CONFIG)
        cfg["objective"] = {"kind": "dpo", "beta": 0.01, "pairing": "on_policy"}
        cfg["schedule"] = {"kind": "static", "target": 0.0, "total_steps": None}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "dpo"
        run_cli("gen-data", "--config", path, "--out", str(out), "--seed", "3")
        assert run_cli("train", "--config", path, "--stage", "full", "--out", str(out), "--seed", "3") == 0
        tel = trainer.read_telemetry(out / "po_telemetry.jsonl")
        assert all(s.alpha is None for s in tel.steps)

    def test_yls_variant_runs_via_cli(self, tmp_path):
        cfg = dict(MINI_CONFIG)
        cfg["objective"] = {"kind": "wrpo_with_yls", "beta": 0.01}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "yls"
        run_cli("gen-data", "--config", path, "--out", str(out), "--seed", "3")
        assert run_cli("train", "--config", path, "--stage", "full", "--out", str(out), "--seed", "3") == 0

    def test_po_stage_imports_no_numpy_ma_and_keeps_no_context_cache(self, tmp_path):
        # numpy.ma (about 1 MiB resident) comes in with np.unique; a process-global
        # context cache would grow with every distinct sequence; neither PO nor a
        # sweep, which runs its jobs one after another, needs worker processes.
        path = write_config(tmp_path, MINI_CONFIG)
        out = tmp_path / "run"
        for argv in (("gen-data",), ("train", "--stage", "sft")):
            assert run_cli(*argv, "--config", path, "--out", str(out)) == 0
        code = (
            "import json, sys\n"
            "from microwrpo import cli, policy\n"
            "for argv in (['train', '--stage', 'po'], ['sweep-alpha', '--targets', '0.5']):\n"
            f"    rc = cli.main([*argv, '--config', {path!r}, '--out', {str(out)!r}])\n"
            "    print(json.dumps([rc, 'numpy.ma' in sys.modules, hasattr(policy, '_CONTEXT_CACHE'),"
            " 'multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules]))\n"
        )
        src = str(Path(microwrpo.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
        assert results == [[0, False, False, False, False]] * 2


class TestSweepAlpha:
    def test_rows_match_independent_runs(self, tmp_path):
        path = write_config(tmp_path, MINI_CONFIG)
        out = tmp_path / "sweep"
        run_cli("gen-data", "--config", path, "--out", str(out), "--seed", "6")
        run_cli("train", "--config", path, "--stage", "sft", "--out", str(out), "--seed", "6")
        assert run_cli(
            "sweep-alpha", "--config", path, "--out", str(out), "--seed", "6",
            "--targets", "0.3", "--kinds", "linear", "static",
        ) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["kind"] for r in rows} == {"linear", "static"}
        # cross-check one row against a direct sweep-runner invocation
        cfg = load_config(path, seed=6, out_dir=str(out))
        direct, _ = cli._sweep_one(
            cli._job_config(cfg, 0.3, "linear"),
            datagen.read_quadruples(out / "dataset.jsonl", cfg.vocabulary()),
            load_checkpoint(out / "target_sft.json"),
        )
        row = next(r for r in rows if r["kind"] == "linear")
        assert float(row["reward_accuracy"]) == direct["reward_accuracy"]
        assert float(row["mean_oracle_score"]) == direct["mean_oracle_score"]
        assert float(row["win_rate"]) == direct["win_rate"]

    def test_row_matches_train_po_with_that_schedule(self, tmp_path):
        path = write_config(tmp_path, MINI_CONFIG)
        out = tmp_path / "sweep"
        run_cli("gen-data", "--config", path, "--out", str(out), "--seed", "6")
        run_cli("train", "--config", path, "--stage", "sft", "--out", str(out), "--seed", "6")
        assert run_cli(
            "sweep-alpha", "--config", path, "--out", str(out), "--seed", "6",
            "--targets", "0.3", "--kinds", "static",
        ) == 0
        sweep_pairs = (out / "po_dataset.jsonl").read_bytes()
        with open(out / "sweep.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        po_cfg = {**MINI_CONFIG, "schedule": {"kind": "static", "target": 0.3}}
        po_path = write_config(tmp_path, po_cfg, name="po.json")
        assert run_cli("train", "--config", po_path, "--stage", "po", "--out", str(out), "--seed", "6") == 0
        assert (out / "po_dataset.jsonl").read_bytes() == sweep_pairs
        metrics = json.loads((out / "metrics.json").read_text())
        assert float(row["reward_accuracy"]) == metrics["reward_accuracy"]
        assert float(row["mean_oracle_score"]) == metrics["candidate_mean_score"]

    def test_from_an_empty_dir_writes_what_the_staged_commands_write(self, tmp_path):
        # The sweep builds the dataset and the SFT snapshot in memory when their files
        # are absent; each file must be the one gen-data and train --stage sft write.
        path = write_config(tmp_path, MINI_CONFIG)
        out = tmp_path / "sweep"
        sweep = ("sweep-alpha", "--targets", "0.3", "0.5", "--kinds", "linear", "static")
        common = ("--config", path, "--out", str(out), "--seed", "6")
        assert run_cli(*sweep, *common) == 0
        in_one = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        for argv in (("gen-data",), ("train", "--stage", "sft"), sweep):
            assert run_cli(*argv, *common) == 0
        staged = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(staged) == sorted(in_one)
        for name, data in staged.items():
            assert in_one[name] == data, name

    def test_requires_wrpo_kind(self, tmp_path):
        cfg = dict(MINI_CONFIG)
        cfg["objective"] = {"kind": "dpo"}
        path = write_config(tmp_path, cfg)
        assert run_cli("sweep-alpha", "--config", path, "--out", str(tmp_path / "s")) == 2

    @pytest.mark.parametrize(
        "targets, kinds",
        [
            (["0.5", "0.5"], ["linear", "linear"]),
            (["0.5", "0.50"], ["static"]),
            (["0.3"], ["linear", "static", "linear"]),
        ],
        ids=["both", "same-target-spelled-apart", "kind"],
    )
    def test_repeated_job_exit_2_before_any_output(self, tmp_path, capsys, targets, kinds):
        path = write_config(tmp_path, MINI_CONFIG)
        out = tmp_path / "sweep"
        argv = ["--targets", *targets, "--kinds", *kinds]
        assert run_cli("sweep-alpha", "--config", path, "--out", str(out), *argv) == 2
        assert "config error: a sweep job is listed twice" in capsys.readouterr().err
        assert not out.exists()


SWEEP_HEADER = "target,kind,reward_accuracy,mean_oracle_score,win_rate\n"


class TestExportFigures:
    @pytest.mark.parametrize(
        "report",
        [
            {"bin_edges": [0.0, 1.0], "roles": {"y_ws": {"histogram": [1, 2]}}},
            {"bin_edges": [0.0, 1.0], "roles": ["y_ws"]},
            {"bin_edges": 5, "roles": {"y_ws": {"histogram": [1]}}},
        ],
        ids=["histogram-longer-than-bins", "roles-list", "edges-int"],
    )
    def test_malformed_deviation_exit_3_and_no_output_dir(self, tmp_path, report):
        deviation = tmp_path / "deviation.json"
        deviation.write_text(json.dumps(report))
        figs = tmp_path / "figs"
        assert run_cli("export-figures", "--deviation", str(deviation), "--out", str(figs)) == 3
        assert not figs.exists()

    def test_margin_csv_schema_and_row_count(self, tmp_path):
        path = write_config(tmp_path, MINI_CONFIG)
        out = tmp_path / "run"
        run_cli("gen-data", "--config", path, "--out", str(out), "--seed", "7")
        run_cli("train", "--config", path, "--stage", "full", "--out", str(out), "--seed", "7")
        figs = tmp_path / "figs"
        assert run_cli(
            "export-figures",
            "--telemetry", str(out / "po_telemetry.jsonl"),
            "--deviation", str(out / "deviation.json"),
            "--out", str(figs),
        ) == 0
        with open(figs / "margin_dynamics__po_telemetry.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "alpha", "on_policy_margin", "hybrid_policy_margin"]
        tel = trainer.read_telemetry(out / "po_telemetry.jsonl")
        assert len(rows) - 1 == len(tel.steps)
        with open(figs / "deviation_histogram.csv") as fh:
            hrows = list(csv.reader(fh))
        assert hrows[0] == ["role", "bin_left", "bin_right", "count"]

    def test_empty_telemetry_writes_header_only_and_exit_zero(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        figs = tmp_path / "figs"
        assert run_cli("export-figures", "--telemetry", str(empty), "--out", str(figs)) == 0
        with open(figs / "margin_dynamics__empty.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["step", "alpha", "on_policy_margin", "hybrid_policy_margin"]]

    def test_margin_csv_cells_are_the_exact_values(self, tmp_path):
        steps = [
            {"alpha": None, "on_policy_margin": None, "hybrid_policy_margin": 1e-20},
            {"alpha": 1, "on_policy_margin": 0.12345678901234568, "hybrid_policy_margin": -2.5},
        ]
        telemetry = tmp_path / "tel.jsonl"
        telemetry.write_text("".join(
            json.dumps({"type": "step", "step": i, "loss": 1.0, "internal_rewards": {},
                        "grad_norm": 0.5, **step}) + "\n"
            for i, step in enumerate(steps)
        ))
        figs = tmp_path / "figs"
        assert run_cli("export-figures", "--telemetry", str(telemetry), "--out", str(figs)) == 0
        assert (figs / "margin_dynamics__tel.csv").read_bytes() == (
            b"step,alpha,on_policy_margin,hybrid_policy_margin\r\n"
            b"0,,,1e-20\r\n"
            b"1,1,0.12345678901234568,-2.5\r\n"
        )

    def test_telemetry_inputs_sharing_an_output_name_exit_2(self, tmp_path, capsys):
        paths = []
        for run in ("runA", "runB"):
            (tmp_path / run).mkdir()
            paths.append(tmp_path / run / "po_telemetry.jsonl")
            paths[-1].write_text("")
        figs = tmp_path / "figs"
        for inputs in (paths, paths[:1] * 2):
            argv = ["--telemetry", *map(str, inputs), "--out", str(figs)]
            assert run_cli("export-figures", *argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
            assert not figs.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "hello\n",
            "target,kind,reward_accuracy,mean_oracle_score\n",
            SWEEP_HEADER + "0.5,linear,0.6,0.4\n",
            SWEEP_HEADER + "half,linear,0.6,0.4,0.5\n",
            SWEEP_HEADER + "0.5,cosine,0.6,0.4,0.5\n",
        ],
        ids=["hello", "wrong-header", "short-row", "non-numeric-target", "unknown-kind"],
    )
    def test_malformed_sweep_exit_3_and_no_output_dir(self, tmp_path, capsys, text):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(text)
        figs = tmp_path / "figs"
        assert run_cli("export-figures", "--sweep", str(sweep), "--out", str(figs)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error:") and captured.err.count("\n") == 1
        assert not figs.exists()

    def test_missing_telemetry_exit_3(self, tmp_path):
        assert run_cli("export-figures", "--telemetry", str(tmp_path / "nope.jsonl")) == 3

    def test_failed_run_creates_no_output_dir(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "step", "step": 0}\n')
        figs = tmp_path / "figs"
        for telemetry in (tmp_path / "nope.jsonl", bad):
            assert run_cli("export-figures", "--telemetry", str(telemetry), "--out", str(figs)) == 3
            assert not figs.exists()


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload) + "\n")


def _edit_first_line(path, edit):
    first, *rest = path.read_text().splitlines(keepends=True)
    record = json.loads(first)
    edit(record)
    path.write_text("".join([json.dumps(record) + "\n", *rest]))


# Valid JSON that Python refuses to convert: an int literal over 4,300 digits.
LONG_INT_LINE = '{"step": ' + "9" * 5000 + "}\n"


def _fill_params(value):
    def edit(payload):
        n = len(base64.b64decode(payload["params"]["data_b64"])) // 8
        data = struct.pack(f"<{n}d", *[value] * n)
        payload["params"]["data_b64"] = base64.b64encode(data).decode()

    return edit


class TestMalformedInput:
    """Corrupt dataset, checkpoint and telemetry files exit with code 3, not a traceback."""

    @pytest.fixture
    def run_dir(self, tmp_path):
        path = write_config(tmp_path, MINI_CONFIG)
        out = tmp_path / "run"
        for argv in (("gen-data",), ("train", "--stage", "full")):
            assert run_cli(*argv, "--config", path, "--out", str(out), "--seed", "2") == 0
        return path, out

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r.pop("y_ws"),
            lambda r: r["y_wt"].update(score="high"),
            lambda r: r["y_l"].update(tokens="abc"),
            lambda r: r["y_ws"].update(sample_index=True),
            lambda r: r.update(prompt=None),
        ],
        ids=["missing-y_ws", "str-score", "str-tokens", "bool-index", "null-prompt"],
    )
    def test_bad_dataset_line(self, run_dir, edit):
        path, out = run_dir
        _edit_first_line(out / "dataset.jsonl", edit)
        assert run_cli("train", "--config", path, "--stage", "sft", "--out", str(out)) == 3

    @pytest.mark.parametrize(
        "command",
        [("train", "--stage", "full"), ("sweep-alpha", "--targets", "0.5", "--kinds", "static")],
        ids=["train", "sweep"],
    )
    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r["y_ls"].update(tokens=[2, 9, 1]),
            lambda r: r.update(prompt=[3, 8]),
            lambda r: r.update(prompt=[]),
        ],
        ids=["y_ls-token-9", "prompt-token-8", "empty-prompt"],
    )
    def test_dataset_token_outside_vocabulary(self, run_dir, command, edit):
        # MINI_CONFIG's vocabulary has 8 tokens; wrpo_dpo never reads y_ls.
        path, out = run_dir
        _edit_first_line(out / "dataset.jsonl", edit)
        assert run_cli(*command, "--config", path, "--out", str(out)) == 3

    @pytest.mark.parametrize(
        "command",
        [("train", "--stage", "po"), ("sweep-alpha", "--targets", "0.5", "--kinds", "static")],
        ids=["train-po", "sweep"],
    )
    @pytest.mark.parametrize("role", ["y_ws", "y_l", "y_ls"])
    def test_response_without_eos(self, run_dir, capsys, command, role):
        # PO regenerates y_l and wrpo_dpo never reads y_ls; the read still refuses them.
        path, out = run_dir
        _edit_first_line(out / "dataset.jsonl", lambda r: r[role]["tokens"].__setitem__(-1, 3))
        before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
        assert run_cli(*command, "--config", path, "--out", str(out)) == 3
        assert f"dataset.jsonl:1: {role}.tokens must end in eos" in capsys.readouterr().err
        assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == before

    @pytest.mark.parametrize(
        "command",
        [("train", "--stage", "po"), ("sweep-alpha", "--targets", "0.5", "--kinds", "static")],
        ids=["train-po", "sweep"],
    )
    def test_repeated_prompt_exit_3_before_any_write(self, run_dir, capsys, command):
        path, out = run_dir
        dataset = out / "dataset.jsonl"
        first = dataset.read_text().splitlines(keepends=True)[0]
        dataset.write_text(first + dataset.read_text())
        before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
        assert run_cli(*command, "--config", path, "--out", str(out)) == 3
        assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == before
        assert "dataset.jsonl:2: prompt " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, prepared",
        [
            (("train", "--stage", "po"), True),
            (("train", "--stage", "full"), True),
            (("sweep-alpha", "--targets", "0.5", "--kinds", "static"), True),
            (("sweep-alpha", "--targets", "0.5", "--kinds", "static"), False),
        ],
        ids=["train-po", "train-full", "sweep", "sweep-from-empty-dir"],
    )
    def test_dataset_without_y_ls_exit_3_before_any_write(
        self, tmp_path, capsys, command, prepared
    ):
        # Unprepared, the sweep makes the y_ls-less dataset itself, then fails at PO.
        no_yls = {**MINI_CONFIG, "data": {"include_yls": False}}
        out = tmp_path / "run"
        for argv in (("gen-data",), ("train", "--stage", "sft")) if prepared else ():
            assert run_cli(*argv, "--config", write_config(tmp_path, no_yls), "--out", str(out)) == 0
        yls = {**no_yls, "objective": {"kind": "wrpo_with_yls"}}
        path = write_config(tmp_path, yls, name="yls.json")
        before = dir_state(out)
        assert run_cli(*command, "--config", path, "--out", str(out)) == 3
        assert dir_state(out) == before
        assert "'wrpo_with_yls' reads y_ls" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p["params"].update(data_b64=p["params"]["data_b64"][:-4]),
            lambda p: p["params"].update(data_b64=p["params"]["data_b64"][:-1]),
            lambda p: p["params"].update(shape="10x10"),
            lambda p: p.pop("params"),
            lambda p: p.update(order="2"),
            lambda p: p.update(order=2**64),
            _fill_params(float("nan")),
        ],
        ids=[
            "short-buffer", "cut-b64", "str-shape", "missing-params", "str-order", "huge-order",
            "nan-params",
        ],
    )
    def test_bad_checkpoint(self, run_dir, edit):
        path, out = run_dir
        _edit_json(out / "target_sft.json", edit)
        assert run_cli("train", "--config", path, "--stage", "po", "--out", str(out)) == 3

    @pytest.mark.parametrize(
        "command, name, n_content, order",
        [
            (("train", "--stage", "po"), "target_sft.json", 8, 2),
            (("train", "--stage", "po"), "target_sft.json", 6, 3),
            (("train", "--stage", "po"), "target_init.json", 8, 2),
            (("sweep-alpha", "--targets", "0.5", "--kinds", "static"), "target_sft.json", 8, 2),
        ],
        ids=["po-sft-vocab", "po-sft-order", "po-init-vocab", "sweep-sft-vocab"],
    )
    def test_checkpoint_mismatching_config(self, run_dir, command, name, n_content, order):
        path, out = run_dir
        model = PolicyModel.random_init(default_vocabulary(n_content), order, 0.5, frozen=True)
        save_checkpoint(model, out / name, label="mismatch")
        assert run_cli(*command, "--config", path, "--out", str(out)) == 3

    @pytest.mark.parametrize(
        "argv, keep_init",
        [
            (("train", "--stage", "sft"), True),
            (("train", "--stage", "full"), True),
            (("sweep-alpha", "--targets", "0.5", "--kinds", "linear"), True),
            (("train", "--stage", "sft"), False),
            (("train", "--stage", "full"), False),
            (("sweep-alpha", "--targets", "0.5", "--kinds", "linear"), False),
        ],
        ids=[
            "train-sft", "train-full", "sweep",
            "train-sft-no-init", "train-full-no-init", "sweep-no-init",
        ],
    )
    def test_dataset_from_another_vocabulary(self, tmp_path, argv, keep_init):
        # Every token of a 6-token dataset fits a 7-token vocabulary; target_init.json
        # beside it tells the two apart before any stage runs, so SFT needs it.
        out = tmp_path / "run"
        narrow = write_config(tmp_path, MINI_CONFIG)
        assert run_cli("gen-data", "--config", narrow, "--out", str(out)) == 0
        if not keep_init:
            (out / "target_init.json").unlink()
        wider = {**MINI_CONFIG, "task": {**MINI_CONFIG["task"], "n_content_tokens": 7}}
        path = write_config(tmp_path, wider, name="wider.json")
        before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
        assert run_cli(*argv, "--config", path, "--out", str(out)) == 3
        assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == before

    @pytest.mark.parametrize(
        "argv, break_input",
        [
            (("train", "--stage", "po"), lambda out: (out / "target_sft.json").unlink()),
            (
                ("sweep-alpha", "--targets", "0.5", "--kinds", "linear"),
                lambda out: (out / "dataset.jsonl").write_text("{}\n"),
            ),
        ],
        ids=["train-po-no-sft", "sweep-bad-dataset"],
    )
    def test_failed_command_keeps_the_resolved_config(self, run_dir, tmp_path, argv, break_input):
        _, out = run_dir
        break_input(out)
        before = (out / "config.resolved.json").read_bytes()
        other = {**MINI_CONFIG, "sampling": {**MINI_CONFIG["sampling"], "temperature": 0.7}}
        other_path = write_config(tmp_path, other, name="other.json")
        assert run_cli(*argv, "--config", other_path, "--out", str(out)) == 3
        assert (out / "config.resolved.json").read_bytes() == before

    def test_unfrozen_checkpoint_is_used_frozen(self, run_dir):
        path, out = run_dir
        before = (out / "target_po.json").read_bytes()
        _edit_json(out / "target_sft.json", lambda p: p.update(frozen=False))
        assert run_cli("train", "--config", path, "--stage", "po", "--out", str(out), "--seed", "2") == 0
        assert (out / "target_po.json").read_bytes() == before

    def test_checkpoint_not_json(self, run_dir):
        path, out = run_dir
        (out / "target_sft.json").write_text("not a checkpoint\n")
        assert run_cli("train", "--config", path, "--stage", "po", "--out", str(out)) == 3

    def test_logits_overflowing_at_the_sampling_temperature(self, run_dir, tmp_path):
        # 1e308 is finite, but 1e308 / 0.5 is not: the first nucleus row is NaN.
        _, out = run_dir
        cold = {**MINI_CONFIG, "sampling": {**MINI_CONFIG["sampling"], "temperature": 0.5}}
        path = write_config(tmp_path, cold, name="cold.json")
        _edit_json(out / "target_sft.json", _fill_params(1e308))
        assert run_cli("train", "--config", path, "--stage", "po", "--out", str(out)) == 3

    @pytest.mark.parametrize("name", ["dataset.jsonl", "target_sft.json"])
    def test_integer_literal_too_long_to_convert(self, run_dir, name):
        path, out = run_dir
        (out / name).write_text(LONG_INT_LINE)
        assert run_cli("train", "--config", path, "--stage", "po", "--out", str(out)) == 3

    @pytest.mark.parametrize(
        "flag, name", [("--telemetry", "po_telemetry.jsonl"), ("--deviation", "deviation.json")]
    )
    def test_integer_literal_too_long_to_convert_in_figure_input(
        self, run_dir, tmp_path, flag, name
    ):
        _, out = run_dir
        (out / name).write_text(LONG_INT_LINE)
        figs = tmp_path / "figs"
        assert run_cli("export-figures", flag, str(out / name), "--out", str(figs)) == 3
        assert not figs.exists()

    @pytest.mark.parametrize(
        "name, stage", [("dataset.jsonl", "sft"), ("target_sft.json", "po")]
    )
    def test_train_input_is_a_directory(self, run_dir, name, stage):
        path, out = run_dir
        (out / name).unlink()
        (out / name).mkdir()
        assert run_cli("train", "--config", path, "--stage", stage, "--out", str(out)) == 3

    @pytest.mark.parametrize("flag", ["--telemetry", "--deviation", "--sweep"])
    def test_figure_input_is_a_directory(self, tmp_path, flag):
        figs = tmp_path / "figs"
        assert run_cli("export-figures", flag, str(tmp_path), "--out", str(figs)) == 3
        assert not figs.exists()

    def test_config_is_a_directory(self, tmp_path):
        assert run_cli("gen-data", "--config", str(tmp_path), "--out", str(tmp_path / "run")) == 2

    @pytest.mark.parametrize(
        "argv",
        [("gen-data",), ("train", "--stage", "sft"), ("export-figures",)],
        ids=["gen-data", "train", "export-figures"],
    )
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_is_a_file(self, tmp_path, argv, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "run" if below else blocker
        assert run_cli(*argv, "--out", str(out)) == 2
        assert blocker.read_text() == ""

    def test_gen_data_output_file_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "dataset.jsonl").mkdir(parents=True)
        assert run_cli("gen-data", "--out", str(out)) == 2
        assert "config error" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["dataset.jsonl"]

    def test_sweep_gen_data_output_file_is_a_directory(self, tmp_path, capsys):
        # With no dataset.jsonl the sweep runs gen-data first; its files are checked too.
        out = tmp_path / "run"
        (out / "attribution.csv").mkdir(parents=True)
        path = write_config(tmp_path, MINI_CONFIG)
        argv = ("--targets", "0.5", "--kinds", "static", "--config", path, "--out", str(out))
        assert run_cli("sweep-alpha", *argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error") and "\n" not in err
        assert [p.name for p in out.iterdir()] == ["attribution.csv"]

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("train", "--stage", "sft"), "sft_telemetry.jsonl"),
            (("train", "--stage", "po"), "metrics.json"),
            (("train", "--stage", "full"), "po_telemetry.jsonl"),
            (("sweep-alpha", "--targets", "0.5", "--kinds", "static"), "sweep.csv"),
        ],
        ids=["train-sft", "train-po", "train-full", "sweep"],
    )
    def test_output_file_is_a_directory(self, run_dir, capsys, argv, name):
        path, out = run_dir
        (out / name).unlink(missing_ok=True)
        (out / name).mkdir()
        before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
        assert run_cli(*argv, "--config", path, "--out", str(out)) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error") and "\n" not in err
        assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == before

    def test_figure_output_file_is_a_directory(self, run_dir, tmp_path, capsys):
        _, out = run_dir
        figs = tmp_path / "figs"
        (figs / "margin_dynamics__po_telemetry.csv").mkdir(parents=True)
        argv = ("--telemetry", str(out / "po_telemetry.jsonl"), "--deviation", str(out / "deviation.json"))
        assert run_cli("export-figures", *argv, "--out", str(figs)) == 2
        assert "config error" in capsys.readouterr().err
        assert [p.name for p in figs.iterdir()] == ["margin_dynamics__po_telemetry.csv"]

    def test_undecodable_dataset(self, run_dir):
        path, out = run_dir
        (out / "dataset.jsonl").write_bytes(b"\xff\xfe{}\n")
        assert run_cli("train", "--config", path, "--stage", "sft", "--out", str(out)) == 3

    @pytest.mark.parametrize("flag", ["--telemetry", "--sweep"])
    def test_undecodable_figure_input(self, tmp_path, flag):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\xfe{}\n")
        figs = tmp_path / "figs"
        assert run_cli("export-figures", flag, str(path), "--out", str(figs)) == 3
        assert not figs.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r.pop("loss"),
            lambda r: r.update(loss="low"),
            lambda r: r.update(internal_rewards=[1.0]),
            lambda r: r.update(step=1.5),
        ],
        ids=["missing-loss", "str-loss", "list-rewards", "float-step"],
    )
    def test_bad_telemetry(self, run_dir, tmp_path, edit):
        _, out = run_dir
        _edit_first_line(out / "po_telemetry.jsonl", edit)
        figs = tmp_path / "figs"
        assert run_cli(
            "export-figures", "--telemetry", str(out / "po_telemetry.jsonl"), "--out", str(figs)
        ) == 3
        assert not figs.exists()


GEN_STAGES = ("build_dataset", "distribution_deviation_report")
PO_STAGES = ("prepare_po", "run_po", "evaluate")
SWEEP = ("sweep-alpha", "--targets", "0.5", "--kinds", "static")
PREPARATIONS = {
    "nothing": (),
    "dataset": (("gen-data",),),
    "full-run": (("gen-data",), ("train", "--stage", "full")),
}
# (case name, the PREPARATIONS entry run before the command, the command, the stages it runs)
FAILING_STAGE_RUNS = [
    ("gen-data", "full-run", ("gen-data",), GEN_STAGES),
    ("train-sft", "full-run", ("train", "--stage", "sft"), ("sft",)),
    ("train-po", "full-run", ("train", "--stage", "po"), PO_STAGES),
    ("train-full", "full-run", ("train", "--stage", "full"), ("sft", *PO_STAGES)),
    ("sweep-empty-dir", "nothing", SWEEP, (*GEN_STAGES, "sft", *PO_STAGES)),
    ("sweep-no-sft", "dataset", SWEEP, ("sft", *PO_STAGES)),
]


class TestFailedStage:
    """A command writes its files only once its last stage has returned."""

    @pytest.mark.parametrize(
        "prepared, argv, stage",
        [
            (prepared, argv, stage)
            for _, prepared, argv, stages in FAILING_STAGE_RUNS
            for stage in stages
        ],
        ids=[f"{name}-{stage}" for name, _, _, stages in FAILING_STAGE_RUNS for stage in stages],
    )
    def test_stage_failure_changes_no_file(
        self, tmp_path, monkeypatch, capsys, prepared, argv, stage
    ):
        path = write_config(tmp_path, MINI_CONFIG)
        out = tmp_path / "run"
        for prep_argv in PREPARATIONS[prepared]:
            assert run_cli(*prep_argv, "--config", path, "--out", str(out), "--seed", "2") == 0
        before = dir_state(out)

        def fail(*args, **kwargs):
            raise NumericError(f"injected failure in {stage}")

        owner = datagen if stage == "distribution_deviation_report" else pipeline
        monkeypatch.setattr(owner, stage, fail)
        capsys.readouterr()
        # Another seed, so that any file the command rewrites gets other bytes.
        assert run_cli(*argv, "--config", path, "--out", str(out), "--seed", "3") == 4
        assert capsys.readouterr().err == f"numeric failure: injected failure in {stage}\n"
        assert dir_state(out) == before


class TestVerifyCommand:
    def test_battery_passes(self):
        assert run_cli("verify", "--fast") == 0

    def test_failed_check_exit_1(self, monkeypatch, capsys):
        name, _, n_full, n_fast = verify.CHECKS[0]
        failing = (name, lambda rng, n: "injected failure", n_full, n_fast)
        monkeypatch.setattr(verify, "CHECKS", [failing, *verify.CHECKS[1:]])
        assert run_cli("verify", "--fast") == 1
        out = capsys.readouterr().out
        assert f"[!!] {name}: FAIL (injected failure)" in out
        assert f"1/{len(verify.CHECKS)} checks failed" in out
