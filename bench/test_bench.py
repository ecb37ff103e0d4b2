"""Self-tests of the benchmark's arithmetic and checks; they start no CLI process.

    python3 -m pytest bench -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("cli", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 3.5, 6.0, 0),  # overlaps the first child: covered once
        ("c", 9.0, 12.0, 0),  # runs past its parent: only 1.0 of it is covered
    ]
    selfs = run.self_times(spans)
    assert selfs["cli"] == pytest.approx(10.0 - (5.0 + 1.0))
    assert selfs["a"] == pytest.approx((3.0 - 1.0) + 2.5)
    assert selfs["b"] == pytest.approx(1.0)
    assert selfs["c"] == pytest.approx(3.0)


def test_self_times_of_nested_spans_add_up_to_the_root():
    spans = [("cli", 0.0, 8.0, -1), ("x", 1.0, 5.0, 0), ("y", 2.0, 3.0, 1), ("y", 6.0, 7.5, 0)]
    assert sum(run.self_times(spans).values()) == pytest.approx(8.0)


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, (50.0, 10)), (40, (75.0, 30)), (100, (90.0, 90)), (200, (95.0, 190)),
     (1000, (99.0, 990)), (10_000, (99.9, 9990))],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    samples = list(range(n, 0, -1))  # order must not matter
    assert run.tail_percentile(samples) == expected


def _gen_artifacts(d: Path) -> dict:
    """A two-prompt gen run's artifacts, and its resolved config."""
    def role(score):
        return {"tokens": [3, 2, 1], "score": score, "model": "m", "sample_index": 0}

    lines = [
        {"schema_version": 1, "prompt": p, "y_ws": role(0.9), "y_wt": role(0.7),
         "y_l": role(0.2), "y_ls": role(0.1)}
        for p in ([2, 3, 4], [4, 3, 2])
    ]
    (d / "dataset.jsonl").write_text("".join(json.dumps(r) + "\n" for r in lines))
    (d / "attribution.csv").write_text("model,wins,percentage\nm,2,100.0\n")
    (d / "deviation.json").write_text(json.dumps({"bin_edges": [], "roles": {"y_ws": {}}}))
    vocab = {"tokens": ["<bos>", "<eos>", "a", "b", "c"], "bos": "<bos>", "eos": "<eos>"}
    (d / "target_init.json").write_text(json.dumps({"vocab": vocab}))
    cfg = {"seed": 3, "task": {"n_prompts": 2}, "ensemble": [{"name": "m"}]}
    (d / "config.resolved.json").write_text(json.dumps(cfg))
    return cfg


def test_tampered_artifact_counts_as_a_failed_repetition(tmp_path):
    cfg = _gen_artifacts(tmp_path)
    wl = run.WORKLOADS["gen"]
    assert run.check_gen(tmp_path, cfg) == (2, [])
    pinned = run.digests(tmp_path, wl.artifacts)

    def rep():
        return {"traced": False, "errors": [], "wall_s": 1.0, "setup_s": 0.1,
                "cpu_s": 1.0, "peak_rss_mb": 50.0, "work": 2,
                "digests": run.digests(tmp_path, wl.artifacts)}

    clean = rep()
    data = (tmp_path / "dataset.jsonl").read_bytes()
    (tmp_path / "dataset.jsonl").write_bytes(data.replace(b"0.9", b"0.8", 1))
    tampered = rep()
    run._check_digests([clean, tampered], pinned)
    assert clean["errors"] == []
    assert tampered["errors"] == ["dataset.jsonl: sha256 differs from the pinned digest"]
    metrics, _ = run.end_to_end_metrics("gen", [clean, tampered])
    assert metrics["success_rate"] == 0.5


def test_structural_checks_catch_a_broken_dataset(tmp_path):
    cfg = _gen_artifacts(tmp_path)
    path = tmp_path / "dataset.jsonl"
    path.write_text(path.read_text().replace('"tokens": [3, 2, 1]', '"tokens": [3, 2]', 1))
    _, errors = run.check_gen(tmp_path, cfg)
    assert errors == ["dataset.jsonl:1: y_ws does not end in eos"]
    path.write_text(path.read_text().splitlines()[0] + "\n")
    _, errors = run.check_gen(tmp_path, cfg)
    assert "dataset.jsonl has 1 lines for 2 prompts" in errors


def _trace(unmeasured=()):
    return {
        "names": ["cli", "policy.sample", "trainer.regen"],
        "spans": [[0, 0.0, 4.0, -1], [2, 1.0, 3.0, 0], [1, 1.5, 2.5, 1]],
        "counts": {"policy.sample.tokens": 8, "policy.sample.truncated": 1},
        "sample_unique": 1,
        "context_cache_entries": 0,
        "unmeasured": list(unmeasured),
    }


def test_layer_metrics_from_a_trace():
    m = run.layer_metrics(_trace())
    assert m["policy.sample.calls"] == 1
    assert m["policy.sample.self_s"] == pytest.approx(1.0)
    assert m["policy.sample.us_per_token"] == pytest.approx(1e6 / 8)
    assert m["trainer.regen.self_s"] == pytest.approx(1.0)
    assert m["cli.other.self_s"] == pytest.approx(2.0)
    assert m["trainer.po_loop.self_s"] == 0.0  # measured, and not run


def test_a_layer_whose_function_is_gone_reads_unmeasured_not_zero():
    m = run.layer_metrics(_trace(unmeasured=["policy.sample", "trainer.regen"]))
    for metric in ("policy.sample.calls", "policy.sample.tokens", "policy.sample.self_s",
                   "trainer.regen.self_s", "datagen.degenerate_pairs"):
        assert m[metric] is None
    assert m["policy.grad.calls"] == 0


def test_a_renamed_function_is_not_resolved(monkeypatch):
    module = types.ModuleType("fake_layer_module")

    class Model:
        def step(self):
            pass

    module.sample = lambda: None
    module.Model = Model
    monkeypatch.setitem(sys.modules, module.__name__, module)
    assert spans._resolve(module.__name__, "sample") == (module, "sample")
    assert spans._resolve(module.__name__, "Model.step") == (Model, "step")
    assert spans._resolve(module.__name__, "sample_batch") is None
    assert spans._resolve(module.__name__, "Optimizer.step") is None
    assert spans._resolve("no_such_module", "sample") is None


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
