"""What the benchmark's tracer (bench/spans.py) reads of the program.

The tracer wraps functions by module and attribute path, and reports a
layer whose function no longer resolves as unmeasured; the benchmark
also checks the traced call counts exactly. These tests load the tracer
by path, without changing it, and keep both in view.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

# Import every module the tracer names, as the CLI does before tracing.
from microwrpo import cli, config, datagen, objectives, policy, schedule, trainer  # noqa: F401
from microwrpo.policy import PolicyModel, SamplingConfig, default_vocabulary

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = load_spans()
    layers = {**spans.TIMED_LAYERS, **spans.COUNTED_LAYERS}
    missing = [
        (layer, module, path)
        for layer, targets in layers.items()
        for module, path in targets
        if spans._resolve(module, path) is None
    ]
    assert not missing


def test_sample_scored_makes_one_sample_and_one_score_call_per_draw(monkeypatch):
    calls = {"sample": 0, "score": 0}
    sample, score = datagen.sample_response, datagen.BigramRewardOracle.score

    def counted_sample(*args, **kwargs):
        # The tracer reads (model, prompt, cfg) from the positional arguments.
        assert len(args) == 3 and set(kwargs) == {"rng", "rows"}
        calls["sample"] += 1
        return sample(*args, **kwargs)

    def counted_score(self, prompt, response):
        calls["score"] += 1
        return score(self, prompt, response)

    monkeypatch.setattr(datagen, "sample_response", counted_sample)
    monkeypatch.setattr(datagen.BigramRewardOracle, "score", counted_score)
    vocab = default_vocabulary(6)
    oracle = datagen.make_oracle(vocab, seed=5)
    model = PolicyModel.random_init(vocab, 2, 0.5, seed=1, frozen=True)
    prompts = datagen.make_prompts(vocab, 7, prompt_length=2, seed=3)
    for max_length in (16, 40):
        calls.update(sample=0, score=0)
        cfg = SamplingConfig(temperature=1.5, top_p=0.95, max_length=max_length, seed=3)
        out = datagen.sample_scored(model, "m", prompts, 5, cfg, oracle, "salt")
        assert sum(map(len, out)) == 35
        assert calls == {"sample": 35, "score": 35}


def test_io_bytes_written_counts_every_byte_a_command_writes(tmp_path, monkeypatch):
    # The tracer counts io.bytes_written through the open it puts in each microwrpo
    # module; a file written any other way would be missing from the count.
    spans = load_spans()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "task": {"n_prompts": 24, "n_content_tokens": 6, "prompt_length": 2},
        "ensemble": [{"name": "solo", "sharpness": 6.0, "noise": 0.3}],
        "sampling": {"n_samples": 2, "max_length": 8},
        "eval": {"n_prompts": 10},
    }))
    bypasses = []
    for owner, name in ((os, "replace"), (Path, "write_text"), (Path, "write_bytes")):
        monkeypatch.setattr(owner, name, lambda *a, _name=name, **k: bypasses.append(_name))
    tracer = spans.Tracer()
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "microwrpo" and "open" not in vars(module):
            monkeypatch.setattr(module, "open", tracer.open, raising=False)
    common = ["--config", str(config)]
    figure_inputs = [
        tmp_path / "gen" / cli.PO_TELEMETRY,
        tmp_path / "gen" / cli.DEVIATION_FILE,
        tmp_path / "sweep" / cli.SWEEP_FILE,
    ]
    runs = [
        ("gen", ["gen-data", *common], cli.GEN_FILES),
        (
            "gen",
            ["train", "--stage", "full", *common],
            (cli.RESOLVED_CONFIG, *cli.SFT_FILES, *cli.PO_FILES),
        ),
        (
            "sweep",
            ["sweep-alpha", "--targets", "0.5", "--kinds", "linear", "static", *common],
            (*cli.GEN_FILES, *cli.SFT_FILES, cli.PO_DATASET_FILE, cli.SWEEP_FILE),
        ),
        (
            "figures",
            ["export-figures", "--telemetry", str(figure_inputs[0]),
             "--deviation", str(figure_inputs[1]), "--sweep", str(figure_inputs[2])],
            ("margin_dynamics__po_telemetry.csv", cli.HISTOGRAM_FILE, cli.ALPHA_SWEEP_FILE),
        ),
    ]
    for out, argv, written in runs:
        tracer.counts.clear()
        assert cli.main([*argv, "--out", str(tmp_path / out)]) == 0
        sizes = {name: (tmp_path / out / name).stat().st_size for name in written}
        assert tracer.counts["io.bytes_written"] == sum(sizes.values()), (argv, sizes)
    # export-figures, the last run, reads each of its inputs through open once.
    assert tracer.counts["io.bytes_read"] == sum(path.stat().st_size for path in figure_inputs)
    assert bypasses == []
