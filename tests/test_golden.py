"""Byte identity against earlier code: a tiny run's artifacts match pinned sha256 digests.

The run uses the default 10-token vocabulary at context order 2 (a 1,000-logit
table) and covers gen-data, train --stage full with in-loop evaluation, a
one-target sweep-alpha of both schedule kinds and export-figures of the run's
PO telemetry, deviation report and sweep. config.resolved.json records the
output path, so it is left out.

A change that moves these bytes on purpose re-pins them with

    PYTHONPATH=src python tests/test_golden.py --pin

and declares the change.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from microwrpo import cli

GOLDEN_FILE = Path(__file__).resolve().parent / "golden_digests.json"
SEED = "3"
CONFIG = {
    "task": {"n_prompts": 24, "prompt_length": 2},
    "sampling": {"n_samples": 2, "max_length": 8},
    "po": {"batch_size": 4, "eval_every": 2, "eval_holdout_fraction": 0.2},
    "eval": {"n_prompts": 10, "samples_per_prompt": 2},
}
COMMANDS = {
    "gen-data": ("gen-data",),
    "train": ("train", "--stage", "full"),
    "sweep-alpha": ("sweep-alpha", "--targets", "0.5", "--kinds", "linear", "static"),
}


def run_digests(root: Path) -> dict:
    """sha256 of each artifact a command writes or changes, keyed by the command."""
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    out = root / "run"
    runs = {
        name: [*argv, "--config", str(cfg), "--out", str(out), "--seed", SEED]
        for name, argv in COMMANDS.items()
    }
    runs["export-figures"] = [
        "export-figures",
        "--telemetry", str(out / cli.PO_TELEMETRY),
        "--deviation", str(out / cli.DEVIATION_FILE),
        "--sweep", str(out / cli.SWEEP_FILE),
        "--out", str(out),
    ]
    digests, seen = {}, {}
    for name, argv in runs.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        assert code == 0, f"{name} exited with {code}"
        current = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.name != cli.RESOLVED_CONFIG
        }
        digests[name] = {k: v for k, v in current.items() if seen.get(k) != v}
        seen = current
    return digests


def test_tiny_run_matches_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("MICROWRPO_OUT", raising=False)
    assert run_digests(tmp_path) == json.loads(GOLDEN_FILE.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --pin")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN_FILE.write_text(json.dumps(run_digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
    print(f"pinned {GOLDEN_FILE}")
