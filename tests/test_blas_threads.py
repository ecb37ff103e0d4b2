"""Artifacts do not depend on how many threads OpenBLAS uses, and importing
microwrpo picks one unless OPENBLAS_NUM_THREADS is already set.

gen-data and train --stage full run with OPENBLAS_NUM_THREADS=1 and with 2,
each in a fresh interpreter, because OpenBLAS reads the variable when numpy
loads. The task's 26**3 = 17,576-logit table is large enough for OpenBLAS to
split a reduction across threads; the golden run's 1,000-logit table is not.
A 29**3 = 24,389-logit table takes trainer._grad_norm past two chunks.
config.resolved.json records the output path, so it is left out.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import microwrpo
from microwrpo import cli, trainer

ARTIFACTS = [
    cli.DATASET_FILE,
    cli.ATTRIBUTION_FILE,
    cli.DEVIATION_FILE,
    cli.INIT_CKPT,
    cli.SFT_CKPT,
    cli.SFT_TELEMETRY,
    cli.PO_DATASET_FILE,
    cli.PO_CKPT,
    cli.PO_TELEMETRY,
    cli.METRICS_FILE,
]
# sha256 of po_telemetry.jsonl on the 17,576-logit task as np.linalg.norm
# wrote it on two OpenBLAS threads, before trainer._grad_norm.
TWO_THREAD_PO_TELEMETRY = "ee25f8f0cedcb7276879b3dfbd420409990305007f46460294469fda01d8fa4a"
SRC = str(Path(microwrpo.__file__).resolve().parents[1])
TWO_CPUS = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS runs one thread on one CPU"
)


def _env(threads: str | None) -> dict:
    """os.environ for a child with OPENBLAS_NUM_THREADS set to ``threads``, or
    unset if None. Always set or unset: importing microwrpo sets it in this
    process, and a child that copied os.environ would inherit the "1"."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _after_import(threads: str | None) -> list[str]:
    """[OPENBLAS_NUM_THREADS, thread count] of a fresh interpreter after
    import microwrpo, started with the variable set to ``threads`` or unset."""
    code = (
        "import os\n"
        "import microwrpo\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env(threads), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_sets_one_blas_thread_by_default():
    assert _after_import(None) == ["1", "1"]


def test_a_preset_blas_thread_count_wins():
    assert _after_import("2")[0] == "2"


@TWO_CPUS
def test_a_preset_blas_thread_count_starts_its_worker():
    assert _after_import("2") == ["2", "2"]


def _runs(root: Path, n_content_tokens: int) -> dict:
    """gen-data then train --stage full at one and two threads: {threads: out dir}."""
    cfg = root / "cfg.json"
    task = {"n_content_tokens": n_content_tokens, "n_prompts": 60}
    cfg.write_text(json.dumps({"task": task, "sampling": {"n_samples": 2}}))
    dirs = {}
    for threads in ("1", "2"):
        out = root / f"threads-{threads}"
        code = (
            "import sys\n"
            "from microwrpo import cli\n"
            "for argv in (['gen-data'], ['train', '--stage', 'full']):\n"
            f"    rc = cli.main([*argv, '--config', {str(cfg)!r}, '--out', {str(out)!r}])\n"
            "    if rc:\n"
            "        sys.exit(rc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=_env(threads),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        dirs[threads] = out
    return dirs


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    return _runs(tmp_path_factory.mktemp("blas-threads"), 24)


@pytest.fixture(scope="module")
def large_run_dirs(tmp_path_factory):
    return _runs(tmp_path_factory.mktemp("blas-threads-large"), 27)


def test_every_artifact_is_compared(run_dirs):
    for out in run_dirs.values():
        names = {p.name for p in out.iterdir()} - {cli.RESOLVED_CONFIG}
        assert names == set(ARTIFACTS)


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact_bytes_equal_under_one_and_two_threads(run_dirs, name):
    assert (run_dirs["1"] / name).read_bytes() == (run_dirs["2"] / name).read_bytes()


def test_po_telemetry_keeps_the_two_thread_norm(run_dirs):
    for out in run_dirs.values():
        digest = hashlib.sha256((out / cli.PO_TELEMETRY).read_bytes()).hexdigest()
        assert digest == TWO_THREAD_PO_TELEMETRY


def test_artifact_bytes_equal_past_two_norm_chunks(large_run_dirs):
    one, two = (
        {name: (out / name).read_bytes() for name in ARTIFACTS} for out in large_run_dirs.values()
    )
    assert one == two


def _norm_mismatches(seed: int, low: int, high: int, rows: int) -> int:
    """How many norms trainer._grad_norm and np.linalg.norm disagree on: vectors
    of sizes in [low, high], the ends and an odd size included, at three
    scales, and a (rows, 26) table."""
    rng = np.random.default_rng(seed)
    sizes = [low, low + 1, (low + high) | 1, high - 1, high, *rng.integers(low, high + 1, 200)]
    xs = [rng.standard_normal(n) * rng.choice([1e-3, 1.0, 1e3]) for n in sizes]
    xs.append(rng.standard_normal((rows, 26)))
    return sum(trainer._grad_norm(x) != float(np.linalg.norm(x)) for x in xs)


def test_grad_norm_is_numpys_norm_up_to_one_chunk():
    # One chunk: OpenBLAS computes np.linalg.norm's dot on one thread at any count.
    assert _norm_mismatches(0, 1, trainer._DOT_CHUNK, 384) == 0


@TWO_CPUS
def test_grad_norm_is_numpys_two_thread_norm_up_to_two_chunks():
    # Two chunks: the halves OpenBLAS gives its two threads. This file, run as a
    # script, prints _norm_mismatches of its arguments.
    args = (1, trainer._DOT_CHUNK + 1, 2 * trainer._DOT_CHUNK, 676)
    proc = subprocess.run(
        [sys.executable, __file__, *map(str, args)],
        capture_output=True,
        text=True,
        env=_env("2"),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


if __name__ == "__main__":
    print(_norm_mismatches(*map(int, sys.argv[1:])))
