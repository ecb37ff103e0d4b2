"""Command-line orchestration: gen-data, train, sweep-alpha, export-figures, verify.

Each command checks its config and inputs, runs every stage in memory, then
writes all its files in one block at its end, so a failed command changes no
file in its output directory. Data files hold no timestamps: reruns are
byte-identical. Exit codes: 0 ok, 1 a verify check failed, 2 config error,
3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import logging
import sys
from pathlib import Path

from . import datagen, pipeline, trainer
from .config import ALPHA_SWEEP_TARGETS, RunConfig, load_config, write_resolved_config
from .errors import (
    ConfigError, DataError, InputError, NumericError, read_json, reading, require_json
)
from .objectives import WRPO_KINDS
from .policy import PolicyModel, load_checkpoint, parameter_hash, save_checkpoint
from .schedule import SCHEDULE_KINDS, FusionSchedule

log = logging.getLogger(__name__)

DATASET_FILE = "dataset.jsonl"
PO_DATASET_FILE = "po_dataset.jsonl"
ATTRIBUTION_FILE = "attribution.csv"
DEVIATION_FILE = "deviation.json"
INIT_CKPT = "target_init.json"
SFT_CKPT = "target_sft.json"
PO_CKPT = "target_po.json"
SFT_TELEMETRY = "sft_telemetry.jsonl"
PO_TELEMETRY = "po_telemetry.jsonl"
METRICS_FILE = "metrics.json"
SWEEP_FILE = "sweep.csv"
RESOLVED_CONFIG = "config.resolved.json"
HISTOGRAM_FILE = "deviation_histogram.csv"
ALPHA_SWEEP_FILE = "alpha_sweep.csv"
SWEEP_COLUMNS = ("target", "kind", "reward_accuracy", "mean_oracle_score", "win_rate")
# The files each stage writes into the output directory.
GEN_FILES = (RESOLVED_CONFIG, DATASET_FILE, ATTRIBUTION_FILE, DEVIATION_FILE, INIT_CKPT)
SFT_FILES = (SFT_CKPT, SFT_TELEMETRY)
PO_FILES = (PO_DATASET_FILE, PO_CKPT, PO_TELEMETRY, METRICS_FILE)
# The stages `train --stage` runs, each with the files it writes beside the resolved config.
TRAIN_STAGES = {"sft": SFT_FILES, "po": PO_FILES, "full": SFT_FILES + PO_FILES}
# The collector's generation-0 threshold while a command runs. At the default (700)
# gen-data collects about a hundred times, walking pools of sampled responses and
# sequences that hold no cycles; mypy raises it to the same value.
GC_THRESHOLD = 200_000


def _make_dir(path, files=()) -> Path:
    """The directory ``path``, created if missing; ConfigError if the OS refuses
    it (a file in the way, a name too long, a null byte), or a directory is where
    one of the output ``files`` goes. Checked before any work, so a bad output
    path costs no run and leaves no partial output."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot make output directory {path!r} ({reason})") from exc
    for name in files:
        if (out / name).is_dir():
            raise ConfigError(f"output file {out / name} is a directory")
    return out


def _write_dataset(out: Path, data: pipeline.Dataset, report) -> None:
    datagen.write_quadruples(out / DATASET_FILE, data.quadruples)
    datagen.write_attribution_csv(out / ATTRIBUTION_FILE, data.attribution)
    with open(out / DEVIATION_FILE, "w") as fh:
        json.dump(report, fh, indent=2, default=vars)
        fh.write("\n")
    save_checkpoint(data.target_init, out / INIT_CKPT, label="target-init")
    print(f"wrote {len(data.quadruples)} quadruples to {out / DATASET_FILE}")


def cmd_gen_data(cfg: RunConfig) -> int:
    """Generate candidates, assemble quadruples, write the data artifacts."""
    out = _make_dir(cfg.out_dir, GEN_FILES)
    data = pipeline.build_dataset(cfg)
    report = datagen.distribution_deviation_report(data.target_init, data.quadruples)
    write_resolved_config(cfg, out / RESOLVED_CONFIG)
    _write_dataset(out, data, report)
    return 0


def _existing(path: Path, hint: str) -> Path:
    if not path.exists():
        raise DataError(f"{path} not found; {hint}")
    return path


def _load_model(cfg: RunConfig, path: Path) -> PolicyModel:
    """A frozen model from a checkpoint that must fit the config's vocabulary and context order."""
    model = load_checkpoint(path)
    vocab, order = cfg.vocabulary(), cfg.raw["task"]["context_order"]
    if model.vocab != vocab or model.order != order:
        raise DataError(
            f"{path}: checkpoint vocabulary {list(model.vocab.tokens)} with context order "
            f"{model.order} does not match the config's {list(vocab.tokens)} with order {order}"
        )
    return model.freeze()


def _write_sft(out: Path, snapshot: PolicyModel, losses: list[float]) -> None:
    save_checkpoint(snapshot, out / SFT_CKPT, label="target-sft")
    with open(out / SFT_TELEMETRY, "w") as fh:
        for i, loss in enumerate(losses):
            fh.write(json.dumps({"type": "step", "step": i, "loss": loss}) + "\n")
    print(f"sft: {len(losses)} steps, checkpoint {out / SFT_CKPT}")


def _check_init(cfg: RunConfig, out: Path, sft: bool) -> None:
    """Check the initial target beside the dataset against the config. A dataset
    records no vocabulary, so a command that runs SFT on it needs this file; for
    any other command it is checked if present. No command reads its parameters:
    the config builds the same model (cfg.target_init)."""
    path = out / INIT_CKPT
    if sft or path.exists():
        hint = "run gen-data first: SFT checks the dataset's vocabulary against it"
        _load_model(cfg, _existing(path, hint))


def cmd_train(cfg: RunConfig, stage: str) -> int:
    if stage not in TRAIN_STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    out = _make_dir(cfg.out_dir, (RESOLVED_CONFIG, *TRAIN_STAGES[stage]))
    dataset = _existing(out / DATASET_FILE, "run gen-data first")
    quadruples = datagen.read_quadruples(dataset, cfg.vocabulary())
    _check_init(cfg, out, sft=stage != "po")
    if stage == "po":
        snapshot = _load_model(cfg, _existing(out / SFT_CKPT, "run the sft stage first"))
    else:
        snapshot, losses = pipeline.sft(cfg, quadruples)
    if stage != "sft":
        pairs, train, heldout = pipeline.prepare_po(cfg, snapshot, quadruples)
        model, telemetry = pipeline.run_po(cfg, snapshot, train, heldout)
        metrics = pipeline.evaluate(cfg, model, snapshot, heldout, baseline=cfg.target_init())
    write_resolved_config(cfg, out / RESOLVED_CONFIG)
    if stage != "po":
        _write_sft(out, snapshot, losses)
    if stage != "sft":
        datagen.write_quadruples(out / PO_DATASET_FILE, pairs)
        save_checkpoint(model, out / PO_CKPT, label=f"target-po-{cfg.raw['objective']['kind']}")
        trainer.write_telemetry(out / PO_TELEMETRY, telemetry)
        with open(out / METRICS_FILE, "w") as fh:
            json.dump(metrics, fh, indent=2)
            fh.write("\n")
        print(
            f"po: {len(telemetry.steps)} steps, checkpoint hash "
            f"{parameter_hash(model)[:12]}, win rate {metrics['win_rate']:.2f}"
        )
    return 0


def _sweep_one(cfg: RunConfig, quadruples, snapshot: PolicyModel):
    """One sweep job, scored against the SFT snapshot: its row, whose keys are the
    sweep.csv columns in order, and its pairs (every job regenerates the same)."""
    pairs, train, heldout = pipeline.prepare_po(cfg, snapshot, quadruples)
    model, _ = pipeline.run_po(cfg, snapshot, train, heldout)
    metrics = pipeline.evaluate(cfg, model, snapshot, heldout, baseline=snapshot)
    row = {
        "target": cfg.raw["schedule"]["target"],
        "kind": cfg.raw["schedule"]["kind"],
        "reward_accuracy": metrics["reward_accuracy"],
        "mean_oracle_score": metrics["candidate_mean_score"],
        "win_rate": metrics["win_rate"],
    }
    return row, pairs


def cmd_sweep_alpha(cfg: RunConfig, targets: list[float], kinds: list[str]) -> int:
    """One PO run per (alpha target, schedule kind) off a shared SFT snapshot."""
    if cfg.objective_config().kind not in WRPO_KINDS:
        raise ConfigError("sweep-alpha requires a wrpo_* objective kind")
    if len(set(targets)) < len(targets) or len(set(kinds)) < len(kinds):
        raise ConfigError(f"a sweep job is listed twice: targets {targets}, kinds {kinds}")
    jobs = [
        cfg.with_overrides({"schedule": {"kind": k, "target": t}, "po": {"eval_every": 0}})
        for t in targets
        for k in kinds
    ]
    out = _make_dir(cfg.out_dir)
    gen_files = () if (out / DATASET_FILE).exists() else GEN_FILES
    sft_files = () if (out / SFT_CKPT).exists() else SFT_FILES
    _make_dir(out, (RESOLVED_CONFIG, PO_DATASET_FILE, SWEEP_FILE, *gen_files, *sft_files))
    if gen_files:
        data = pipeline.build_dataset(cfg)
        quadruples = data.quadruples
        report = datagen.distribution_deviation_report(data.target_init, quadruples)
    else:
        quadruples = datagen.read_quadruples(out / DATASET_FILE, cfg.vocabulary())
        _check_init(cfg, out, sft=bool(sft_files))
    if sft_files:
        snapshot, losses = pipeline.sft(cfg, quadruples)
    else:
        snapshot = _load_model(cfg, out / SFT_CKPT)
    row, pairs = _sweep_one(jobs[0], quadruples, snapshot)
    rows = [row] + [_sweep_one(job, quadruples, snapshot)[0] for job in jobs[1:]]
    rows.sort(key=lambda r: (r["target"], r["kind"]))
    write_resolved_config(cfg, out / RESOLVED_CONFIG)
    if gen_files:
        _write_dataset(out, data, report)
    if sft_files:
        _write_sft(out, snapshot, losses)
    datagen.write_quadruples(out / PO_DATASET_FILE, pairs)
    with open(out / SWEEP_FILE, "w", newline="") as fh:
        writer = csv.DictWriter(fh, SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep rows to {out / SWEEP_FILE}")
    return 0


def _read_deviation(path: str) -> tuple[list, dict]:
    """(bin edges, roles) of a deviation report; DataError unless its bin edges are
    finite numbers and every role's histogram is a list of len(edges) - 1 ints."""
    report = read_json(path, DataError)
    require_json(report, "dict", path, DataError)
    edges, roles = report.get("bin_edges"), report.get("roles")
    require_json(edges, "list[float]", f"{path}: bin_edges", DataError)
    require_json(roles, "dict", f"{path}: roles", DataError)
    bins = len(edges) - 1
    for role, stats in roles.items():
        hist = stats.get("histogram") if isinstance(stats, dict) else None
        require_json(hist, "list[int]", f"{path}: roles.{role}.histogram", DataError)
        if len(hist) != bins:
            raise DataError(f"{path}: roles.{role}.histogram must be a list of {bins} ints")
    return edges, roles


def _read_sweep(path: str) -> list[list[str]]:
    """The rows of a sweep.csv, header first; DataError unless its header is
    SWEEP_COLUMNS and every row has one cell per column and a target and schedule
    kind that FusionSchedule accepts (a number in [0, 1], a SCHEDULE_KINDS name)."""
    try:
        with reading(path, DataError), open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV ({exc})") from exc
    if rows[:1] != [list(SWEEP_COLUMNS)]:
        raise DataError(f"{path}: header must be {','.join(SWEEP_COLUMNS)}")
    for line, row in enumerate(rows[1:], 2):
        if len(row) != len(SWEEP_COLUMNS):
            raise DataError(f"{path}: line {line} has {len(row)} cells, not {len(SWEEP_COLUMNS)}")
        try:
            FusionSchedule(kind=row[1], target=float(row[0]), total_steps=1)
        except ValueError as exc:  # a target that is no float, or InputError
            raise DataError(f"{path}: line {line}: {exc}") from exc
    return rows


def cmd_export_figures(
    telemetry_paths: list[str],
    deviation_path: str | None,
    sweep_path: str | None,
    out_dir: str,
) -> int:
    """Plot-ready CSV bundles; tolerant of empty inputs, and writes nothing on a bad one.
    ConfigError when no input is given: there would be nothing to export."""
    if not telemetry_paths and deviation_path is None and sweep_path is None:
        raise ConfigError("nothing to export: give --telemetry, --deviation or --sweep")
    margins = [f"margin_dynamics__{Path(tpath).stem}.csv" for tpath in telemetry_paths]
    if len(set(margins)) < len(margins):
        raise ConfigError(f"two telemetry inputs share a file name: {telemetry_paths}")
    tables = {}  # {file name: rows, header first}
    for name, tpath in zip(margins, telemetry_paths):
        steps = trainer.read_telemetry(tpath).steps
        if not steps:
            log.warning("telemetry %s has no step records; its table has headers only", tpath)
        tables[name] = [["step", "alpha", "on_policy_margin", "hybrid_policy_margin"]] + [
            [s.step, s.alpha, s.on_policy_margin, s.hybrid_policy_margin] for s in steps
        ]
    if deviation_path is not None:
        edges, roles = _read_deviation(deviation_path)
        tables[HISTOGRAM_FILE] = [["role", "bin_left", "bin_right", "count"]] + [
            [role, edges[i], edges[i + 1], count]
            for role, stats in roles.items()
            for i, count in enumerate(stats["histogram"])
        ]
    if sweep_path is not None:
        tables[ALPHA_SWEEP_FILE] = _read_sweep(sweep_path)
    out = _make_dir(out_dir, tables)
    for name, rows in tables.items():
        with open(out / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {out / name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microwrpo",
        description="Desk-scale weighted-reward preference optimization lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="JSON run config (defaults used if omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the root seed")
        p.add_argument("--out", default=None, help="override the output directory")

    p_gen = sub.add_parser("gen-data", help="generate the preference dataset")
    add_common(p_gen)

    p_train = sub.add_parser("train", help="run a training stage")
    add_common(p_train)
    p_train.add_argument("--stage", choices=TRAIN_STAGES, default="full")

    p_sweep = sub.add_parser("sweep-alpha", help="sweep fusion-coefficient targets")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--targets", type=float, nargs="+", default=ALPHA_SWEEP_TARGETS
    )
    p_sweep.add_argument(
        "--kinds", nargs="+", choices=SCHEDULE_KINDS, default=list(SCHEDULE_KINDS)
    )

    p_fig = sub.add_parser("export-figures", help="export plot-ready CSV bundles")
    p_fig.add_argument("--telemetry", nargs="*", default=[])
    p_fig.add_argument("--deviation", default=None)
    p_fig.add_argument("--sweep", default=None)
    p_fig.add_argument("--out", default="figures")

    p_ver = sub.add_parser("verify", help="run the invariant battery")
    p_ver.add_argument("--fast", action="store_true", help="smaller sample sizes")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    thresholds = gc.get_threshold()
    gc.set_threshold(GC_THRESHOLD, *thresholds[1:])
    try:
        if args.command == "export-figures":
            return cmd_export_figures(args.telemetry, args.deviation, args.sweep, args.out)
        if args.command == "verify":
            from .verify import run_battery

            return run_battery(fast=args.fast)
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.stage)
        return cmd_sweep_alpha(cfg, args.targets, args.kinds)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, InputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
