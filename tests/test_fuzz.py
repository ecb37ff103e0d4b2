"""Fuzzed CLI input: wrong-typed and out-of-range config leaves, corrupted
dataset lines and checkpoint fields, and corrupted export-figures inputs (a
telemetry field, a deviation report leaf, a sweep.csv cell). Every run must
exit with 0, 2 or 3, never with a traceback; export-figures exits 0 or 3 and
leaves no output directory on 3."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from microwrpo import cli
from microwrpo.config import load_config

TINY = {
    "task": {"n_content_tokens": 4, "n_prompts": 6, "prompt_length": 2},
    "ensemble": [{"name": "solo", "sharpness": 5.0, "noise": 0.5}],
    "sampling": {"n_samples": 2, "max_length": 6},
    "eval": {"n_prompts": 4, "samples_per_prompt": 1},
}

# Small numbers only: a fuzzed size that happens to be valid must stay cheap...
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4),
    st.floats(-3, 4),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=3),
    st.lists(st.integers(-2, 9), max_size=3),
    st.just({}),
)

# ...except where the config caps the size, so that a huge value must exit with code 2.
HUGE = st.sampled_from([2**31, 2**64])
CAPPED_LEAVES = (("task", "n_content_tokens"), ("task", "context_order"), ("task", "prompt_length"))

# Files may also carry integers past int64; in a config they would be valid, slow sizes.
FILE_VALUES = st.one_of(VALUES, st.sampled_from([2**64, -(2**64)]), st.just(...))

FUZZ = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def leaves(node, path=()):
    """Paths to every scalar and every list in a JSON tree."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in leaves(v, (*path, k))]
    if isinstance(node, list):
        return [path] + [p for i, v in enumerate(node) for p in leaves(v, (*path, i))]
    return [path]


def corrupt(node, path, value):
    """Replace the leaf at ``path`` with ``value``; a value of ``...`` deletes it."""
    *parents, last = path
    for key in parents:
        node = node[key]
    if value is ...:
        del node[last]
    else:
        node[last] = value


def run_quietly(*argv) -> int:
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    assert "Traceback" not in stderr.getvalue()
    return code


TINY_RAW = load_config().with_overrides(TINY).raw
CONFIG_LEAVES = [p for p in leaves(TINY_RAW) if p != ("out_dir",)]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory) -> Path:
    """A gen-data + SFT run on TINY, built once and copied per example."""
    root = tmp_path_factory.mktemp("tiny")
    (root / "cfg.json").write_text(json.dumps(TINY))
    for argv in (("gen-data",), ("train", "--stage", "sft")):
        assert run_quietly(*argv, "--config", str(root / "cfg.json"), "--out", str(root / "run")) == 0
    return root


def check_config_leaf(path, value):
    raw = json.loads(json.dumps(TINY_RAW))
    corrupt(raw, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = str(Path(tmp) / "run")
        code = run_quietly("gen-data", "--config", str(cfg), "--out", out)
        if code == 0:
            code = run_quietly("train", "--stage", "full", "--config", str(cfg), "--out", out)
        assert code in (0, 2, 3)
        if isinstance(value, int) and value >= 2**31:
            assert code == 2


@FUZZ
@given(path=st.sampled_from(CONFIG_LEAVES), value=VALUES)
def test_config_leaf(path, value):
    check_config_leaf(path, value)


@FUZZ
@given(path=st.sampled_from(CAPPED_LEAVES), value=st.one_of(VALUES, HUGE))
def test_capped_size_leaf(path, value):
    check_config_leaf(path, value)


def _corrupted_copy(tiny_run: Path, tmp: str, name: str, edit) -> Path:
    run = Path(tmp) / "run"
    shutil.copytree(tiny_run / "run", run)
    edit(run / name)
    return run


@FUZZ
@given(data=st.data(), line=st.integers(0, 5), value=FILE_VALUES)
def test_dataset_line(tiny_run, data, line, value):
    def edit(path):
        lines = path.read_text().splitlines()
        record = json.loads(lines[line])
        corrupt(record, data.draw(st.sampled_from(leaves(record))), value)
        lines[line] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")

    with tempfile.TemporaryDirectory() as tmp:
        run = _corrupted_copy(tiny_run, tmp, "dataset.jsonl", edit)
        cfg = str(tiny_run / "cfg.json")
        assert run_quietly("train", "--stage", "full", "--config", cfg, "--out", str(run)) in (0, 3)


@FUZZ
@given(
    data=st.data(),
    name=st.sampled_from(["target_sft.json", "target_init.json"]),
    value=FILE_VALUES,
)
def test_checkpoint_field(tiny_run, data, name, value):
    def edit(path):
        payload = json.loads(path.read_text())
        corrupt(payload, data.draw(st.sampled_from(leaves(payload))), value)
        path.write_text(json.dumps(payload))

    with tempfile.TemporaryDirectory() as tmp:
        run = _corrupted_copy(tiny_run, tmp, name, edit)
        cfg = str(tiny_run / "cfg.json")
        assert run_quietly("train", "--stage", "po", "--config", cfg, "--out", str(run)) in (0, 3)


@FUZZ
@given(line=st.integers(0, 5), cut=st.integers(0, 200))
def test_truncated_dataset_line(tiny_run, line, cut):
    def edit(path):
        lines = path.read_text().splitlines()
        lines[line] = lines[line][:cut]
        path.write_text("\n".join(lines) + "\n")

    with tempfile.TemporaryDirectory() as tmp:
        run = _corrupted_copy(tiny_run, tmp, "dataset.jsonl", edit)
        cfg = str(tiny_run / "cfg.json")
        assert run_quietly("train", "--stage", "sft", "--config", cfg, "--out", str(run)) in (0, 3)


@pytest.fixture(scope="module")
def figure_inputs(tiny_run, tmp_path_factory) -> Path:
    """po_telemetry.jsonl and deviation.json of a PO run on TINY, and a sweep.csv."""
    root = tmp_path_factory.mktemp("figures")
    shutil.copytree(tiny_run / "run", root / "run")
    cfg, out = str(tiny_run / "cfg.json"), str(root / "run")
    assert run_quietly("train", "--stage", "po", "--config", cfg, "--out", out) == 0
    sweep = ("sweep-alpha", "--targets", "0.3", "0.5", "--kinds", "linear", "static")
    assert run_quietly(*sweep, "--config", cfg, "--out", out) == 0
    return root / "run"


def check_figure_input(figure_inputs: Path, flag: str, name: str, edit) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        shutil.copy(figure_inputs / name, path)
        edit(path)
        figs = Path(tmp) / "figs"
        code = run_quietly("export-figures", flag, str(path), "--out", str(figs))
        assert code in (0, 3)
        assert code == 0 or not figs.exists()


@FUZZ
@given(data=st.data(), value=FILE_VALUES)
def test_telemetry_field(figure_inputs, data, value):
    def edit(path):
        lines = path.read_text().splitlines()
        line = data.draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[line])
        corrupt(record, data.draw(st.sampled_from(leaves(record))), value)
        lines[line] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")

    check_figure_input(figure_inputs, "--telemetry", "po_telemetry.jsonl", edit)


@FUZZ
@given(data=st.data(), value=FILE_VALUES)
def test_deviation_leaf(figure_inputs, data, value):
    def edit(path):
        report = json.loads(path.read_text())
        corrupt(report, data.draw(st.sampled_from(leaves(report))), value)
        path.write_text(json.dumps(report))

    check_figure_input(figure_inputs, "--deviation", "deviation.json", edit)


# Near-misses of a valid cell, and any short text (a comma, quote or newline included).
CELLS = st.one_of(
    st.sampled_from(
        ["", "0", "1", "0.5", "-0.1", "1.5", "nan", "inf", "1e999", "linear", "cosine"]
    ),
    st.text(max_size=4),
)


@FUZZ
@given(data=st.data(), cell=CELLS)
def test_sweep_cell(figure_inputs, data, cell):
    def edit(path):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        row = data.draw(st.integers(0, len(rows) - 1))
        rows[row][data.draw(st.integers(0, len(rows[row]) - 1))] = cell
        path.write_text("".join(",".join(r) + "\r\n" for r in rows))

    check_figure_input(figure_inputs, "--sweep", "sweep.csv", edit)
