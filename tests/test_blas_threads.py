"""Artifacts do not depend on how many threads OpenBLAS uses.

gen-data and train --stage full run with OPENBLAS_NUM_THREADS=1 and with 2,
each in a fresh interpreter, because OpenBLAS reads the variable when numpy
loads. The task's 26**3 = 17,576-logit table is large enough for OpenBLAS to
split a reduction across threads; the golden run's 1,000-logit table is not.
config.resolved.json records the output path, so it is left out.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import microwrpo
from microwrpo import cli

CONFIG = {"task": {"n_content_tokens": 24, "n_prompts": 60}, "sampling": {"n_samples": 2}}
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
GRAD_NORM_DIFFERS = pytest.mark.xfail(
    strict=False,
    reason="StepRecord.grad_norm is np.linalg.norm, an OpenBLAS reduction whose order "
    "follows the thread count (ROADMAP item 1)",
)


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("blas-threads")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    src = str(Path(microwrpo.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "MICROWRPO_OUT"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
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
            env={**env, "OPENBLAS_NUM_THREADS": threads},
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        dirs[threads] = out
    return dirs


def test_every_artifact_is_compared(run_dirs):
    for out in run_dirs.values():
        names = {p.name for p in out.iterdir()} - {cli.RESOLVED_CONFIG}
        assert names == set(ARTIFACTS)


@pytest.mark.parametrize(
    "name",
    [pytest.param(n, marks=GRAD_NORM_DIFFERS) if n == cli.PO_TELEMETRY else n for n in ARTIFACTS],
)
def test_artifact_bytes_equal_under_one_and_two_threads(run_dirs, name):
    assert (run_dirs["1"] / name).read_bytes() == (run_dirs["2"] / name).read_bytes()
