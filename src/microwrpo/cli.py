"""Command-line orchestration: gen-data, train, sweep-alpha, export-figures, verify.

Every command validates its config up front, writes the resolved config
next to its outputs once its inputs are read and checked, and keeps
wall-clock noise (timestamps) out of data files so reruns are byte-identical.
Exit codes: 0 ok, 1 a verify check failed, 2 config error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

from . import datagen, pipeline, trainer
from .config import ALPHA_SWEEP_TARGETS, RunConfig, load_config, write_resolved_config
from .errors import ConfigError, DataError, InputError, NumericError, is_number
from .objectives import WRPO_KINDS
from .policy import PolicyModel, load_checkpoint, parameter_hash, save_checkpoint
from .schedule import SCHEDULE_KINDS

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


def _make_dir(path, files=()) -> Path:
    """The directory ``path``, created if missing; ConfigError if a file is in the
    way, or a directory where one of the output ``files`` goes. Checked before
    any work, so a bad output path costs no run and leaves no partial output."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output directory {path} is not a directory ({exc.strerror})") from exc
    for name in files:
        if (out / name).is_dir():
            raise ConfigError(f"output file {out / name} is a directory")
    return out


def cmd_gen_data(cfg: RunConfig) -> int:
    """Generate candidates, assemble quadruples, write the data artifacts."""
    out = _make_dir(cfg.out_dir, GEN_FILES)
    write_resolved_config(cfg, out / RESOLVED_CONFIG)
    data = pipeline.build_dataset(cfg)
    datagen.write_quadruples(out / DATASET_FILE, data.quadruples)
    datagen.write_attribution_csv(out / ATTRIBUTION_FILE, data.attribution)
    report = datagen.distribution_deviation_report(data.target_init, data.quadruples)
    with open(out / DEVIATION_FILE, "w") as fh:
        json.dump(report, fh, indent=2, default=vars)
        fh.write("\n")
    save_checkpoint(data.target_init, out / INIT_CKPT, label="target-init")
    print(f"wrote {len(data.quadruples)} quadruples to {out / DATASET_FILE}")
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


def _sft_stage(cfg: RunConfig, out: Path, quadruples) -> PolicyModel:
    snapshot, losses = pipeline.sft(cfg, quadruples)
    save_checkpoint(snapshot, out / SFT_CKPT, label="target-sft")
    with open(out / SFT_TELEMETRY, "w") as fh:
        for i, loss in enumerate(losses):
            fh.write(json.dumps({"type": "step", "step": i, "loss": loss}) + "\n")
    print(f"sft: {len(losses)} steps, checkpoint {out / SFT_CKPT}")
    return snapshot


def _init_model(cfg: RunConfig, out: Path, sft: bool) -> PolicyModel | None:
    """The initial target beside the dataset, checked against the config. A dataset
    records no vocabulary, so a command that runs SFT on it needs this file; for
    any other command it may be absent (None)."""
    path = out / INIT_CKPT
    if sft:
        _existing(path, "run gen-data first: SFT checks the dataset's vocabulary against it")
    return _load_model(cfg, path) if path.exists() else None


def _po_stage(
    cfg: RunConfig, out: Path, quadruples, snapshot: PolicyModel, baseline: PolicyModel
) -> None:
    pairs, train, heldout = pipeline.prepare_po(cfg, snapshot, quadruples)
    datagen.write_quadruples(out / PO_DATASET_FILE, pairs)
    model, telemetry = pipeline.run_po(cfg, snapshot, train, heldout)
    save_checkpoint(model, out / PO_CKPT, label=f"target-po-{cfg.raw['objective']['kind']}")
    trainer.write_telemetry(out / PO_TELEMETRY, telemetry)
    metrics = pipeline.evaluate(cfg, model, snapshot, heldout, baseline)
    with open(out / METRICS_FILE, "w") as fh:
        json.dump(metrics, fh, indent=2)
        fh.write("\n")
    print(
        f"po: {len(telemetry.steps)} steps, checkpoint hash "
        f"{parameter_hash(model)[:12]}, win rate {metrics['win_rate']:.2f}"
    )


def cmd_train(cfg: RunConfig, stage: str) -> int:
    if stage not in ("sft", "po", "full"):
        raise ConfigError(f"unknown stage {stage!r}")
    stages = {"sft": SFT_FILES, "po": PO_FILES, "full": SFT_FILES + PO_FILES}
    out = _make_dir(cfg.out_dir, (RESOLVED_CONFIG, *stages[stage]))
    dataset = _existing(out / DATASET_FILE, "run gen-data first")
    quadruples = datagen.read_quadruples(dataset, cfg.vocabulary().size)
    baseline = _init_model(cfg, out, sft=stage != "po")
    if stage == "po":
        snapshot = _load_model(cfg, _existing(out / SFT_CKPT, "run the sft stage first"))
    write_resolved_config(cfg, out / RESOLVED_CONFIG)
    if stage != "po":
        snapshot = _sft_stage(cfg, out, quadruples)
    if stage != "sft":
        _po_stage(cfg, out, quadruples, snapshot, snapshot if baseline is None else baseline)
    return 0


def _job_config(cfg: RunConfig, target: float, kind: str) -> RunConfig:
    """cfg with the fusion schedule set to (kind, target) and in-loop evaluation off."""
    raw = {
        **cfg.raw,
        "schedule": {**cfg.raw["schedule"], "kind": kind, "target": target},
        "po": {**cfg.raw["po"], "eval_every": 0},
    }
    return RunConfig(raw=raw).validate()


def _sweep_one(cfg: RunConfig, quadruples, snapshot: PolicyModel):
    """One sweep job, scored against the SFT snapshot: its row, whose keys are the
    sweep.csv columns in order, and its pairs."""
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
    jobs = [_job_config(cfg, t, k) for t in targets for k in kinds]
    out = Path(cfg.out_dir)
    gen_files = () if (out / DATASET_FILE).exists() else GEN_FILES
    sft_files = () if (out / SFT_CKPT).exists() else SFT_FILES
    out = _make_dir(out, (RESOLVED_CONFIG, PO_DATASET_FILE, SWEEP_FILE, *gen_files, *sft_files))
    if gen_files:
        cmd_gen_data(cfg)  # writes the resolved config with its first output
    quadruples = datagen.read_quadruples(out / DATASET_FILE, cfg.vocabulary().size)
    _init_model(cfg, out, sft=bool(sft_files))  # only checked: jobs score against the snapshot
    snapshot = None if sft_files else _load_model(cfg, out / SFT_CKPT)
    if not gen_files:
        write_resolved_config(cfg, out / RESOLVED_CONFIG)
    if snapshot is None:
        snapshot = _sft_stage(cfg, out, quadruples)
    # Every job regenerates the same pairs; the first job's are written.
    rows = []
    for i, job in enumerate(jobs):
        row, pairs = _sweep_one(job, quadruples, snapshot)
        if i == 0:
            datagen.write_quadruples(out / PO_DATASET_FILE, pairs)
        rows.append(row)
    rows.sort(key=lambda r: (r["target"], r["kind"]))
    with open(out / SWEEP_FILE, "w", newline="") as fh:
        writer = csv.DictWriter(fh, SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep rows to {out / SWEEP_FILE}")
    return 0


def _read_deviation(path: str) -> tuple[list, dict]:
    """(bin edges, roles) of a deviation report; DataError unless every role's
    histogram is a list of len(edges) - 1 ints."""
    try:
        with open(path) as fh:
            report = json.load(fh)
        edges, roles = report["bin_edges"], report["roles"]
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed deviation report ({exc!r})") from exc
    if not (isinstance(edges, list) and all(is_number(e) for e in edges)):
        raise DataError(f"{path}: bin_edges must be a list of numbers")
    if not isinstance(roles, dict):
        raise DataError(f"{path}: roles must be an object")
    for role, stats in roles.items():
        hist = stats.get("histogram") if isinstance(stats, dict) else None
        if not (
            isinstance(hist, list)
            and len(hist) == len(edges) - 1
            and all(is_number(c, integer=True) for c in hist)
        ):
            raise DataError(
                f"{path}: roles.{role} must be an object whose histogram is a list of "
                f"{len(edges) - 1} ints"
            )
    return edges, roles


def _read_sweep(path: str) -> str:
    """The text of a sweep.csv; DataError unless its header is SWEEP_COLUMNS and
    every row has one cell per column, a numeric target and a schedule kind."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: undecodable bytes ({exc})") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from exc
    rows = csv.reader(text.splitlines())
    if next(rows, None) != list(SWEEP_COLUMNS):
        raise DataError(f"{path}: header must be {','.join(SWEEP_COLUMNS)}")
    for line, row in enumerate(rows, 2):
        if len(row) != len(SWEEP_COLUMNS):
            raise DataError(f"{path}: line {line} has {len(row)} cells, not {len(SWEEP_COLUMNS)}")
        try:
            float(row[0])
        except ValueError as exc:
            raise DataError(f"{path}: line {line}: target {row[0]!r} is not a number") from exc
        if row[1] not in SCHEDULE_KINDS:
            raise DataError(f"{path}: line {line}: kind must be one of {SCHEDULE_KINDS}")
    return text


def cmd_export_figures(
    telemetry_paths: list[str],
    deviation_path: str | None,
    sweep_path: str | None,
    out_dir: str,
) -> int:
    """Plot-ready CSV bundles; tolerant of empty inputs, and writes nothing on a bad one."""
    margins = [f"margin_dynamics__{Path(tpath).stem}.csv" for tpath in telemetry_paths]
    if len(set(margins)) < len(margins):
        raise ConfigError(f"two telemetry inputs share a file name: {telemetry_paths}")
    for path in (*telemetry_paths, deviation_path, sweep_path):
        if path is not None and not Path(path).exists():
            raise DataError(f"input file not found: {path}")
    telemetries = [(path, trainer.read_telemetry(path)) for path in telemetry_paths]
    if deviation_path is not None:
        edges, roles = _read_deviation(deviation_path)
    if sweep_path is not None:
        sweep_text = _read_sweep(sweep_path)
    inputs = ((HISTOGRAM_FILE, deviation_path), (ALPHA_SWEEP_FILE, sweep_path))
    out = _make_dir(out_dir, margins + [name for name, path in inputs if path is not None])
    for name, (tpath, telemetry) in zip(margins, telemetries):
        dest = out / name
        with open(dest, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "alpha", "on_policy_margin", "hybrid_policy_margin"])
            for s in telemetry.steps:
                writer.writerow([s.step, s.alpha, s.on_policy_margin, s.hybrid_policy_margin])
        if not telemetry.steps:
            log.warning("telemetry %s has no step records; wrote headers only", tpath)
        print(f"wrote {dest}")
    if deviation_path is not None:
        dest = out / HISTOGRAM_FILE
        with open(dest, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["role", "bin_left", "bin_right", "count"])
            for role, stats in roles.items():
                for i, count in enumerate(stats["histogram"]):
                    writer.writerow([role, edges[i], edges[i + 1], count])
        print(f"wrote {dest}")
    if sweep_path is not None:
        dest = out / ALPHA_SWEEP_FILE
        dest.write_text(sweep_text)
        print(f"wrote {dest}")
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
    p_train.add_argument("--stage", choices=("sft", "po", "full"), default="full")

    p_sweep = sub.add_parser("sweep-alpha", help="sweep fusion-coefficient targets")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--targets", type=float, nargs="+", default=ALPHA_SWEEP_TARGETS
    )
    p_sweep.add_argument(
        "--kinds", nargs="+", choices=("linear", "static"), default=["linear", "static"]
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
    try:
        if args.command == "gen-data":
            return cmd_gen_data(load_config(args.config, seed=args.seed, out_dir=args.out))
        if args.command == "train":
            return cmd_train(
                load_config(args.config, seed=args.seed, out_dir=args.out), args.stage
            )
        if args.command == "sweep-alpha":
            return cmd_sweep_alpha(
                load_config(args.config, seed=args.seed, out_dir=args.out),
                args.targets,
                args.kinds,
            )
        if args.command == "export-figures":
            return cmd_export_figures(args.telemetry, args.deviation, args.sweep, args.out)
        if args.command == "verify":
            from .verify import run_battery

            return run_battery(fast=args.fast)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, InputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
