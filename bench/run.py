#!/usr/bin/env python3
"""Benchmark of the microwrpo CLI on three workloads: gen, po and sweep.

    python3 bench/run.py --workload {gen,po,sweep} [--seed 3] [--seconds 25] [--trace 0|1]

The program is taken from ``src/`` beside this directory and driven from
outside, through its CLI. Every repetition is a fresh child process
(``child.py``), one at a time, with MICROWRPO_THREADS and MICROWRPO_OUT
unset, so the interpreter, the imports and the process-wide caches start
cold as they do for a user. The inputs are made from ``--seed``; the
program sees only the generated config and, for po and sweep, the dataset
and SFT checkpoint prepared untimed before the repetitions.

Every repetition's artifacts are checked: against pinned sha256 digests
at seed 3, and against structural invariants at every seed. With
``--trace 1`` untraced and traced repetitions alternate; the traced ones
give the per-layer metrics, their counts are cross-checked exactly
against the artifacts, and their digests must equal the untraced ones.

The lines printed first are a readable report; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import base64
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN_FILE = BENCH_DIR / "golden_digests.json"
GOLDEN_SEED = 3
MIN_REPS = 3  # untraced repetitions per run, and traced ones with --trace 1
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0  # no repetition starts that would likely end past this
SUM_TOLERANCE = 0.10  # layer self times plus cli.other versus traced wall time

SWEEP_TARGETS = ("0.1", "0.3", "0.5", "0.7", "0.9")
SWEEP_KINDS = ("linear", "static")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- statistics -----------------------------------------------------------------

TAIL_PER_MILLE = (999, 990, 950, 900, 750, 500)


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest percentile of 99.9, 99, 95, 90, 75, 50 with at least ten samples beyond it.

    Nearest-rank: the p-th percentile is the ceil(n*p/100)-th smallest
    sample. Returns (p, value), or None when even the median has fewer
    than ten samples above it.
    """
    xs = sorted(samples)
    n = len(xs)
    for per_mille in TAIL_PER_MILLE:
        rank = -(-n * per_mille // 1000)
        if rank >= 1 and n - rank >= 10:
            return per_mille / 10, xs[rank - 1]
    return None


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the union of its children's intervals.

    ``spans`` is a sequence of (name, start, end, parent index), where the
    parent index is -1 for a root.
    """
    children = defaultdict(list)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
    return dict(totals)


# -- artifact checks --------------------------------------------------------------


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _eos_id(checkpoint: Path) -> int:
    vocab = json.loads(checkpoint.read_text())["vocab"]
    return vocab["tokens"].index(vocab["eos"])


def _check_pairs(records: list[dict], eos: int, where: str, errors: list[str]) -> None:
    for line_no, rec in enumerate(records, 1):
        for role in ("y_ws", "y_wt", "y_l", "y_ls"):
            if rec.get(role) is None:
                continue
            tokens = rec[role]["tokens"]
            if not tokens or tokens[-1] != eos:
                errors.append(f"{where}:{line_no}: {role} does not end in eos")
        if not rec["y_wt"]["score"] >= rec["y_l"]["score"]:
            errors.append(f"{where}:{line_no}: y_wt scores below y_l")


def _po_sizes(cfg: dict) -> tuple[int, int]:
    """(PO records, training records after the held-out cut), as the CLI splits them."""
    n = cfg["task"]["n_prompts"]
    n_po = n - int(cfg["data"]["split_fraction"] * n)
    return n_po, n_po - int(cfg["po"]["eval_holdout_fraction"] * n_po)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_gen(d: Path, cfg: dict) -> tuple[int, list[str]]:
    """Work is the number of prompts; one dataset line per distinct prompt."""
    errors: list[str] = []
    n = cfg["task"]["n_prompts"]
    records = _jsonl(d / "dataset.jsonl")
    if len(records) != n:
        errors.append(f"dataset.jsonl has {len(records)} lines for {n} prompts")
    if len({tuple(r["prompt"]) for r in records}) != len(records):
        errors.append("dataset.jsonl repeats a prompt")
    _check_pairs(records, _eos_id(d / "target_init.json"), "dataset.jsonl", errors)
    with open(d / "attribution.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(cfg["ensemble"]) or sum(int(r["wins"]) for r in rows) != n:
        errors.append("attribution.csv does not attribute every prompt to one member")
    if not json.loads((d / "deviation.json").read_text())["roles"]:
        errors.append("deviation.json has no roles")
    return n, errors


def _check_checkpoint(path: Path, errors: list[str]) -> None:
    params = json.loads(path.read_text())["params"]
    values = array("d", base64.b64decode(params["data_b64"]))
    if len(values) != math.prod(params["shape"]) or not all(map(math.isfinite, values)):
        errors.append(f"{path.name}: parameters do not match their shape or are not finite")


def check_po(d: Path, cfg: dict) -> tuple[int, list[str]]:
    """Work is training records x epochs; telemetry has ceil(records/batch) x epochs steps."""
    errors: list[str] = []
    n_po, n_train = _po_sizes(cfg)
    po = cfg["po"]
    records = _jsonl(d / "po_dataset.jsonl")
    if len(records) != n_po:
        errors.append(f"po_dataset.jsonl has {len(records)} lines, expected {n_po}")
    _check_pairs(records, _eos_id(d / "target_po.json"), "po_dataset.jsonl", errors)
    steps = [r for r in _jsonl(d / "po_telemetry.jsonl") if r["type"] == "step"]
    expected = math.ceil(n_train / po["batch_size"]) * po["epochs"]
    if len(steps) != expected:
        errors.append(f"po_telemetry.jsonl has {len(steps)} steps, expected {expected}")
    if not all(_finite(s["loss"]) and _finite(s["grad_norm"]) for s in steps):
        errors.append("po_telemetry.jsonl has a non-finite loss or gradient norm")
    metrics = json.loads((d / "metrics.json").read_text())
    for key in ("reward_accuracy", "candidate_mean_score", "win_rate"):
        if not _finite(metrics.get(key)):
            errors.append(f"metrics.json: {key} is not a finite number")
    _check_checkpoint(d / "target_po.json", errors)
    return n_train * po["epochs"], errors


def check_sweep(d: Path, cfg: dict) -> tuple[int, list[str]]:
    """Work is the number of sweep jobs; one finite row per (target, kind)."""
    errors: list[str] = []
    with open(d / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = {(float(t), k) for t in SWEEP_TARGETS for k in SWEEP_KINDS}
    if len(rows) != len(expected) or {(float(r["target"]), r["kind"]) for r in rows} != expected:
        errors.append(f"sweep.csv rows do not cover the {len(expected)} (target, kind) jobs")
    for r in rows:
        for key in ("reward_accuracy", "mean_oracle_score", "win_rate"):
            if not math.isfinite(float(r[key])):
                errors.append(f"sweep.csv: {key} is not finite for {r['target']} {r['kind']}")
    n_po, _ = _po_sizes(cfg)
    records = _jsonl(d / "po_dataset.jsonl")
    if len(records) != n_po:
        errors.append(f"po_dataset.jsonl has {len(records)} lines, expected {n_po}")
    _check_pairs(records, _eos_id(d / "target_sft.json"), "po_dataset.jsonl", errors)
    return len(expected), errors


def _eval_samples(cfg: dict) -> int:
    """Sequences one final quality evaluation samples (candidate and baseline)."""
    return cfg["eval"]["n_prompts"] * cfg["eval"]["samples_per_prompt"] * 2


def expected_counts(workload: str, cfg: dict, d: Path) -> dict[str, int]:
    """Per-layer counts a traced repetition must reproduce exactly."""
    n_samples = cfg["sampling"]["n_samples"]
    n_po, _ = _po_sizes(cfg)
    if workload == "gen":
        calls = cfg["task"]["n_prompts"] * (len(cfg["ensemble"]) + 1) * n_samples
        return {"policy.sample.calls": calls, "datagen.oracle.calls": calls}
    if workload == "po":
        steps = sum(1 for r in _jsonl(d / "po_telemetry.jsonl") if r["type"] == "step")
        calls = n_po * n_samples + _eval_samples(cfg)
        return {
            "trainer.optimizer.steps": steps,
            "policy.sample.calls": calls,
            "datagen.oracle.calls": calls,
        }
    jobs = len(SWEEP_TARGETS) * len(SWEEP_KINDS)
    calls = jobs * (n_po * n_samples + _eval_samples(cfg))
    return {"policy.sample.calls": calls, "datagen.oracle.calls": calls}


def digests(d: Path, names) -> dict[str, str]:
    return {
        name: hashlib.sha256((d / name).read_bytes()).hexdigest() if (d / name).exists() else "missing"
        for name in names
    }


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    overrides: dict  # merged over the built-in defaults; the seed is added
    command: tuple[str, ...]
    prep: tuple[tuple[str, ...], ...]  # run once, untimed, before the repetitions
    inputs: tuple[str, ...]  # prep outputs copied into each repetition's directory
    artifacts: tuple[str, ...]
    work_unit: str
    check: Callable[[Path, dict], tuple[int, list[str]]]


PREP_SFT = (("gen-data",), ("train", "--stage", "sft"))

WORKLOADS = {
    # Sampling, derive_rng and the oracle with no training, plus the
    # JSONL/checkpoint write path: where a batched sampler shows. Prompt
    # length 4 leaves enough distinct prompts for three times the default.
    "gen": Workload(
        overrides={"task": {"prompt_length": 4, "n_prompts": 900}},
        command=("gen-data",),
        prep=(),
        inputs=(),
        artifacts=(
            "dataset.jsonl",
            "attribution.csv",
            "deviation.json",
            "target_init.json",
            "config.resolved.json",
        ),
        work_unit="prompts",
        check=check_gen,
    ),
    # The PO gradient loop with the four-role objective over a 26-token
    # vocabulary (17.6k logits): where a packed loss table shows. Also the
    # read path (read_quadruples, load_checkpoint). In-loop eval stays off.
    "po": Workload(
        overrides={
            "task": {"n_content_tokens": 24},
            "objective": {"kind": "wrpo_with_yls"},
            "po": {"epochs": 10},
        },
        command=("train", "--stage", "po"),
        prep=PREP_SFT,
        inputs=("dataset.jsonl", "target_init.json", "target_sft.json"),
        artifacts=(
            "po_dataset.jsonl",
            "target_po.json",
            "po_telemetry.jsonl",
            "metrics.json",
            "config.resolved.json",
        ),
        work_unit="records x epochs",
        check=check_po,
    ),
    # Ten sequential PO jobs off one SFT snapshot: 27 % of the sampled
    # sequences are distinct, so only here can sharing work across jobs
    # show; the evaluation layer weighs heavily.
    "sweep": Workload(
        overrides={},
        command=("sweep-alpha", "--targets", *SWEEP_TARGETS, "--kinds", *SWEEP_KINDS),
        prep=PREP_SFT,
        inputs=("dataset.jsonl", "target_sft.json"),
        artifacts=("po_dataset.jsonl", "sweep.csv", "config.resolved.json"),
        work_unit="sweep jobs",
        check=check_sweep,
    ),
}

# -- metrics -----------------------------------------------------------------------

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "throughput": "items/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "fraction",
}

PER_LAYER = {  # name -> unit
    "policy.sample.calls": "count",
    "policy.sample.tokens": "count",
    "policy.sample.truncated": "count",
    "policy.sample.self_s": "s",
    "policy.sample.us_per_token": "us",
    "policy.sample.unique_share": "fraction",
    "policy.derive_rng.calls": "count",
    "policy.derive_rng.self_s": "s",
    "datagen.oracle.calls": "count",
    "datagen.oracle.self_s": "s",
    "datagen.generate.self_s": "s",
    "datagen.assemble.self_s": "s",
    "datagen.deviation.self_s": "s",
    "datagen.degenerate_pairs": "count",
    "policy.logprob.calls": "count",
    "policy.logprob.self_s": "s",
    "policy.grad.calls": "count",
    "policy.grad.self_s": "s",
    "objectives.loss.calls": "count",
    "objectives.loss.self_s": "s",
    "objectives.param_grad.calls": "count",
    "objectives.param_grad.self_s": "s",
    "trainer.optimizer.steps": "count",
    "trainer.optimizer.self_s": "s",
    "trainer.po_loop.self_s": "s",
    "schedule.alpha_at.calls": "count",
    "policy.context_cache.entries": "count",
    "trainer.regen.self_s": "s",
    "trainer.eval_quality.self_s": "s",
    "trainer.eval_accuracy.self_s": "s",
    "trainer.sft.self_s": "s",
    "io.bytes_written": "bytes",
    "io.bytes_read": "bytes",
    "io.self_s": "s",
    "config.build.self_s": "s",
    "cli.other.self_s": "s",
    "trace.overhead_frac": "fraction",
    "artifacts.bytes": "bytes",
}

# Metrics whose layer is not the name minus its last part.
METRIC_LAYERS = {"datagen.degenerate_pairs": ("datagen.assemble", "trainer.regen")}


def layer_metrics(trace: dict) -> dict[str, float | None]:
    """Per-layer metrics of one traced repetition; None for an unmeasured layer."""
    names = trace["names"]
    spans = [(names[n], start, end, parent) for n, start, end, parent in trace["spans"]]
    selfs = self_times(spans)
    calls = Counter(name for name, *_ in spans)
    counts = Counter(trace["counts"])
    tokens = counts["policy.sample.tokens"]
    values = {
        "policy.sample.tokens": tokens,
        "policy.sample.truncated": counts["policy.sample.truncated"],
        "policy.sample.us_per_token": 1e6 * selfs.get("policy.sample", 0.0) / tokens if tokens else 0.0,
        "policy.sample.unique_share": (
            trace["sample_unique"] / calls["policy.sample"] if calls["policy.sample"] else 0.0
        ),
        "datagen.degenerate_pairs": counts["datagen.degenerate_pairs"],
        "trainer.optimizer.steps": calls["trainer.optimizer"],
        "schedule.alpha_at.calls": counts["schedule.alpha_at"],
        "policy.context_cache.entries": trace["context_cache_entries"],
        "io.bytes_written": counts["io.bytes_written"],
        "io.bytes_read": counts["io.bytes_read"],
        "cli.other.self_s": selfs.get("cli", 0.0),
    }
    unmeasured = set(trace["unmeasured"])
    out: dict[str, float | None] = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if metric in values:
            value = values[metric]
        elif stat == "calls":
            value = calls[layer]
        elif stat == "self_s":
            value = selfs.get(layer, 0.0)
        else:
            continue  # filled in from the whole run
        layers = METRIC_LAYERS.get(metric, (layer,))
        out[metric] = None if unmeasured.intersection(layers) else value
    return out


# -- running ---------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("MICROWRPO_THREADS", "MICROWRPO_OUT"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _write_config(d: Path, seed: int, overrides: dict) -> None:
    (d / "config.json").write_text(json.dumps({**overrides, "seed": seed}, indent=2) + "\n")


def _cli_args(command) -> list[str]:
    return [*command, "--config", "config.json", "--out", "."]


def prepare(run_dir: Path, wl: Workload, seed: int) -> Path:
    """Untimed: warm the import path, then build the workload's inputs."""
    prep = run_dir / "prep"
    prep.mkdir(parents=True)
    _write_config(prep, seed, wl.overrides)
    commands = [[sys.executable, "-c", "import microwrpo.cli"]]
    commands += [[sys.executable, "-m", "microwrpo.cli", *_cli_args(c)] for c in wl.prep]
    for cmd in commands:
        with open(prep / "stderr.txt", "w") as err:
            proc = subprocess.run(
                cmd, cwd=prep, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err,
                timeout=CHILD_TIMEOUT_S,
            )
        if proc.returncode != 0:
            raise RuntimeError(
                f"preparation {cmd[1:]} exited {proc.returncode}: "
                + (prep / "stderr.txt").read_text()[-2000:]
            )
    return prep


def spawn(rep_dir: Path, argv: list[str], traced: bool) -> dict:
    """Run child.py once; wall, set-up, CPU and peak RSS of that process."""
    timing_path = rep_dir / "timing.json"
    trace_path = rep_dir / "spans.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        str(timing_path), str(trace_path) if traced else "-", *argv,
    ]
    with open(rep_dir / "stderr.txt", "w") as err:
        spawned = _now()
        proc = subprocess.Popen(
            cmd, cwd=rep_dir, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rep = {
        "exit": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "traced": traced,
        "errors": [],
    }
    if proc.returncode != 0 or not timing_path.exists():
        tail = (rep_dir / "stderr.txt").read_text()[-1000:]
        rep["errors"].append(f"exit code {proc.returncode}: {tail}")
        return rep
    timing = json.loads(timing_path.read_text())
    rep["wall_s"] = timing["main_end"] - timing["main_start"]
    rep["setup_s"] = timing["main_start"] - spawned
    if Path(timing["cli"]).resolve().parent.parent != SRC:
        rep["errors"].append(f"the CLI was imported from {timing['cli']}, not from {SRC}")
    if traced:
        rep["trace"] = json.loads(trace_path.read_text())
    return rep


def run_rep(run_dir: Path, prep: Path, name: str, wl: Workload, seed: int, idx: int, traced: bool) -> dict:
    rep_dir = run_dir / f"rep{idx}"
    rep_dir.mkdir()
    for f in wl.inputs:
        shutil.copyfile(prep / f, rep_dir / f)
    _write_config(rep_dir, seed, wl.overrides)
    rep = spawn(rep_dir, _cli_args(wl.command), traced)
    try:
        if not rep["errors"]:
            _check_rep(rep, rep_dir, name, wl, seed)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def _check_rep(rep: dict, rep_dir: Path, name: str, wl: Workload, seed: int) -> None:
    errors = rep["errors"]
    rep["digests"] = digests(rep_dir, wl.artifacts)
    rep["artifact_bytes"] = {
        a: (rep_dir / a).stat().st_size for a in wl.artifacts if (rep_dir / a).exists()
    }
    try:
        cfg = json.loads((rep_dir / "config.resolved.json").read_text())
        if cfg["seed"] != seed:
            errors.append(f"config.resolved.json has seed {cfg['seed']}, expected {seed}")
        rep["work"], found = wl.check(rep_dir, cfg)
        errors.extend(found[:5])
        if rep["traced"]:
            _check_trace(rep, rep_dir, name, cfg)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        errors.append(f"malformed artifact: {exc!r}")


def _check_trace(rep: dict, rep_dir: Path, name: str, cfg: dict) -> None:
    errors = rep["errors"]
    layers = layer_metrics(rep["trace"])
    rep["layers"] = layers
    for metric, want in expected_counts(name, cfg, rep_dir).items():
        got = layers[metric]
        if got is not None and got != want:
            errors.append(f"traced {metric} = {got}, expected {want}")
    total = sum(v for m, v in layers.items() if m.endswith(".self_s") and v is not None)
    if abs(total - rep["wall_s"]) > SUM_TOLERANCE * rep["wall_s"]:
        errors.append(f"layer self times sum to {total:.4f} s of {rep['wall_s']:.4f} s traced wall time")


def measure(name: str, seed: int, seconds: float, trace: bool, golden: dict | None) -> list[dict]:
    """Repetitions until ``seconds`` have passed (and MIN_REPS of each kind ran)."""
    wl = WORKLOADS[name]
    run_dir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        prep = prepare(run_dir, wl, seed)
        reps: list[dict] = []
        begin = _now()
        while True:
            started = _now()
            traced = trace and len(reps) % 2 == 1
            reps.append(run_rep(run_dir, prep, name, wl, seed, len(reps), traced))
            last = _now() - started
            elapsed = _now() - begin
            n_traced = sum(r["traced"] for r in reps)
            enough = len(reps) - n_traced >= MIN_REPS and (not trace or n_traced >= MIN_REPS)
            if (elapsed >= seconds and enough) or elapsed + last > RUN_BUDGET_S:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    _check_digests(reps, golden)
    return reps


def _check_digests(reps: list[dict], golden: dict | None) -> None:
    """All repetitions, traced or not, match each other and the pinned digests."""
    ok = [r for r in reps if "digests" in r]
    reference = golden if golden is not None else (ok[0]["digests"] if ok else None)
    for r in ok:
        for artifact, digest in r["digests"].items():
            if digest != reference.get(artifact):
                kind = "pinned" if golden is not None else "first repetition's"
                r["errors"].append(f"{artifact}: sha256 differs from the {kind} digest")


# -- reporting ---------------------------------------------------------------------


def _summary(label: str, values: list[float], unit: str) -> str:
    tail = tail_percentile(values)
    tail_txt = f"p{tail[0]:g} {tail[1]:.4f}" if tail else "no tail percentile below 20 samples"
    return f"  {label:<30} median {statistics.median(values):.4f} {unit}  (n={len(values)}; {tail_txt})"


def end_to_end_metrics(name: str, reps: list[dict]) -> tuple[dict, list[str]]:
    wl = WORKLOADS[name]
    good = [r for r in reps if not r["errors"] and not r["traced"]]
    attempted = [r for r in reps if not r["traced"]]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "cpu_s": statistics.median(r["cpu_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "success_rate": len(good) / len(attempted),
    }
    work = good[0]["work"]
    values["throughput"] = work / values["wall_s"]
    lines = [f"work per repetition: {work} {wl.work_unit}; throughput is {wl.work_unit}/s"]
    for key in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb"):
        lines.append(_summary(key, [r[key] for r in good], END_TO_END[key]))
    lines.append("  wall_s of each repetition: " + " ".join(f"{r['wall_s']:.3f}" for r in good))
    lines.append(
        f"  error_rate                     {1 - values['success_rate']:.4f} "
        f"({len(attempted) - len(good)} of {len(attempted)} repetitions)"
    )
    return {k: values[k] for k in END_TO_END}, lines


def per_layer_metrics(reps: list[dict]) -> tuple[dict, list[str]]:
    traced = [r for r in reps if r["traced"] and not r["errors"]]
    out: dict[str, float | None] = {}
    for metric in PER_LAYER:
        if metric in traced[0]["layers"]:
            samples = [r["layers"][metric] for r in traced]
            out[metric] = None if None in samples else statistics.median(samples)
    # Each traced repetition against the untraced one just before it, so
    # that drift in the host's speed during the run cancels out.
    ratios = [t["wall_s"] / u["wall_s"] for u, t in zip(reps[::2], reps[1::2])
              if not u["errors"] and not t["errors"]]
    out["trace.overhead_frac"] = statistics.median(ratios) - 1 if ratios else None
    out["artifacts.bytes"] = sum(traced[0]["artifact_bytes"].values())
    lines = [f"  {a:<30} {b} bytes" for a, b in traced[0]["artifact_bytes"].items()]
    unmeasured = sorted(m for m, v in out.items() if v is None)
    if unmeasured:
        lines.append("unmeasured: " + ", ".join(unmeasured))
    return out, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true",
        help=f"record this run's artifact digests as the pinned ones (seed {GOLDEN_SEED} only)",
    )
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "microwrpo" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'microwrpo'}", file=sys.stderr)
        return 2
    if args.pin and args.seed != GOLDEN_SEED:
        parser.error(f"--pin needs --seed {GOLDEN_SEED}")
    pinned = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}
    golden = None
    if args.seed == GOLDEN_SEED and not args.pin:
        golden = pinned.get(args.workload, {})

    try:
        reps = measure(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [r for r in reps if r["errors"]]
    for r in failed:
        print(f"repetition failed ({'traced' if r['traced'] else 'untraced'}): " + "; ".join(r["errors"]), file=sys.stderr)
    if args.trace and not any(r["traced"] and not r["errors"] for r in reps):
        print("error: no traced repetition passed its checks", file=sys.stderr)
        return 1
    if not any(not r["traced"] and not r["errors"] for r in reps):
        print("error: no untraced repetition passed its checks", file=sys.stderr)
        return 1
    if args.pin:
        if failed:
            print("error: not pinning the digests of a run with failed repetitions", file=sys.stderr)
            return 1
        pinned[args.workload] = reps[0]["digests"]
        GOLDEN_FILE.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(reps)} repetitions, {len(failed)} failed")
    if args.trace:
        values, lines = per_layer_metrics(reps)
        units = PER_LAYER
    else:
        values, lines = end_to_end_metrics(args.workload, reps)
        units = END_TO_END
    print("\n".join(lines))
    for metric, value in values.items():
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"  {metric:<30} {shown} {units[metric]}")
    result = {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
