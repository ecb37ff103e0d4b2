"""Run configuration: one JSON file drives every pipeline stage.

Defaults mirror the operating point of the method's reference setup
(N = 5 samples, top-p 0.95, temperature 0.8, beta = 0.01, linear alpha
ramp to 0.1, cosine lr with 0.1 warm-up, one epoch per stage, one-third
SFT split), scaled down to the toy task where needed (step sizes, prompt
counts). Unknown keys anywhere in the file are rejected.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass

from .datagen import (
    BigramRewardOracle,
    SourceEnsemble,
    make_oracle,
    make_prompts,
    make_source_ensemble,
)
from .errors import ConfigError, InputError, is_number
from .objectives import KINDS, ObjectiveConfig
from .policy import PolicyModel, SamplingConfig, Vocabulary, default_vocabulary, derive_seed, stream_salt
from .schedule import SCHEDULE_KINDS, FusionSchedule
from .trainer import LR_SCHEDULES, OPTIMIZER_KINDS, OptimizerConfig

__all__ = ["RunConfig", "load_config", "default_config_dict", "write_resolved_config"]

# Per-kind operating points from the reference setup's tuning tables.
PAPER_OBJECTIVE_SETTINGS = {
    "dpo": {"beta": 0.01},
    "ipo": {"tau": 0.01},
    "simpo": {"beta": 10.0, "gamma": 1.0},
    "wrpo_dpo": {"beta": 0.01, "alpha_target": 0.1},
    "wrpo_simpo": {"beta": 10.0, "gamma": 0.0, "alpha_target": 0.5},
    "wrpo_ipo": {"tau": 0.01, "alpha_target": 0.1},
    "wrpo_with_yls": {"beta": 0.01, "alpha_target": 0.1},
}

ALPHA_SWEEP_TARGETS = [0.1, 0.3, 0.5, 0.7, 0.9]

# The most entries a config may ask for in one logit table, (n_content_tokens + 2) **
# (context_order + 1), in the prompt space make_prompts permutes, n_content_tokens **
# prompt_length, or in one stream's uniforms, sampling.max_length: 1 MiB of float64.
# The benchmark's largest table is 26**3 = 17,576.
MAX_SPACE = 2**17


def default_config_dict() -> dict:
    return {
        "out_dir": "runs/default",
        "seed": 0,
        "task": {
            "n_content_tokens": 8,
            "context_order": 2,
            "n_prompts": 300,
            "prompt_length": 3,
            "oracle_seed": 7,
            "length_penalty": 0.01,
            "target_init_scale": 0.5,
        },
        "ensemble": [
            {"name": "expert-sharp", "sharpness": 6.0, "noise": 0.3},
            {"name": "expert-mid", "sharpness": 4.0, "noise": 0.6},
            {"name": "expert-noisy", "sharpness": 2.5, "noise": 1.0},
        ],
        "sampling": {
            "temperature": 0.8,
            "top_p": 0.95,
            "max_length": 16,
            "n_samples": 5,
        },
        "data": {"split_fraction": 1.0 / 3.0, "include_yls": True},
        "objective": {
            "kind": "wrpo_dpo",
            "beta": 0.01,
            "tau": 0.01,
            "gamma": 0.0,
            "pairing": "on_policy",
        },
        "schedule": {"kind": "linear", "target": 0.1, "total_steps": None},
        "sft": {
            "epochs": 1,
            "batch_size": 16,
            "optimizer": {
                "kind": "adam",
                "step_size": 0.2,
                "schedule": "cosine",
                "warmup_fraction": 0.1,
            },
        },
        "po": {
            "epochs": 1,
            "batch_size": 16,
            "optimizer": {
                "kind": "adam",
                "step_size": 0.05,
                "schedule": "cosine",
                "warmup_fraction": 0.1,
            },
            "eval_every": 0,
            "eval_holdout_fraction": 0.1,
        },
        "eval": {"n_prompts": 100, "samples_per_prompt": 3, "prompt_seed": 11},
    }


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {sorted(unknown)}")


def _merge(defaults: dict, override: dict, where: str) -> dict:
    _check_keys(override, set(defaults), where)
    merged = {}
    for key, base in defaults.items():
        if key not in override:
            merged[key] = copy.deepcopy(base)
        elif isinstance(base, dict):
            if not isinstance(override[key], dict):
                raise ConfigError(f"{where}.{key} must be an object")
            merged[key] = _merge(base, override[key], f"{where}.{key}")
        else:
            merged[key] = copy.deepcopy(override[key])
    return merged


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


# Leaf types; null is allowed only where the defaults hold or accept it.
_INT_FIELDS = (
    "seed", "task.n_content_tokens", "task.context_order", "task.n_prompts",
    "task.prompt_length", "task.oracle_seed", "sampling.max_length", "sampling.n_samples",
    "sft.epochs", "sft.batch_size", "po.epochs", "po.batch_size", "po.eval_every",
    "eval.n_prompts", "eval.samples_per_prompt", "eval.prompt_seed", "schedule.total_steps",
)
_NUMBER_FIELDS = (
    "task.length_penalty", "task.target_init_scale", "sampling.temperature", "sampling.top_p",
    "data.split_fraction", "objective.beta", "objective.tau", "objective.gamma",
    "schedule.target", "sft.optimizer.step_size", "sft.optimizer.warmup_fraction",
    "po.optimizer.step_size", "po.optimizer.warmup_fraction", "po.eval_holdout_fraction",
)
_NULLABLE_FIELDS = ("schedule.total_steps", "objective.tau", "objective.gamma")


def _require_space(base: int, exponent: int, what: str) -> None:
    # base >= 2, so an exponent of MAX_SPACE's bit length or more is over the cap;
    # it is rejected before the power is formed, which could take forever.
    _require(
        exponent < MAX_SPACE.bit_length() and base**exponent <= MAX_SPACE,
        f"{what} must be at most {MAX_SPACE} entries",
    )


def _check_types(d: dict) -> None:
    for fields, integer in ((_INT_FIELDS, True), (_NUMBER_FIELDS, False)):
        for path in fields:
            value = d
            for part in path.split("."):
                value = value[part]
            if value is None and path in _NULLABLE_FIELDS:
                continue
            _require(is_number(value, integer), f"{path} must be {'an int' if integer else 'a number'}")
    _require(isinstance(d["out_dir"], str), "out_dir must be a string")
    _require(isinstance(d["data"]["include_yls"], bool), "data.include_yls must be true or false")


@dataclass
class RunConfig:
    """Validated view over the resolved configuration dictionary."""

    raw: dict

    # -- validation ---------------------------------------------------------
    def validate(self) -> "RunConfig":
        d = self.raw
        _check_types(d)
        task = d["task"]
        _require(d["seed"] >= 0, "seed must be a non-negative int")
        _require(task["oracle_seed"] >= 0, "task.oracle_seed must be >= 0")
        _require(d["eval"]["prompt_seed"] >= 0, "eval.prompt_seed must be >= 0")
        _require(task["n_content_tokens"] >= 2, "task.n_content_tokens must be >= 2")
        _require(task["context_order"] >= 1, "task.context_order must be >= 1")
        _require(task["n_prompts"] >= 1, "task.n_prompts must be >= 1")
        _require(task["prompt_length"] >= 1, "task.prompt_length must be >= 1")
        _require(task["length_penalty"] >= 0, "task.length_penalty must be >= 0")
        _require_space(
            task["n_content_tokens"] + 2,
            task["context_order"] + 1,
            "the logit table, (task.n_content_tokens + 2) ** (task.context_order + 1),",
        )
        _require_space(
            task["n_content_tokens"],
            task["prompt_length"],
            "the prompt space, task.n_content_tokens ** task.prompt_length,",
        )
        n_space = task["n_content_tokens"] ** task["prompt_length"]
        for where, n in (("task", task["n_prompts"]), ("eval", d["eval"]["n_prompts"])):
            _require(
                n <= n_space,
                f"{where}.n_prompts is {n}, more than the {n_space} distinct prompts of "
                f"length {task['prompt_length']} over {task['n_content_tokens']} content tokens",
            )
        _require(
            isinstance(d["ensemble"], list) and len(d["ensemble"]) >= 1,
            "ensemble must be a non-empty list",
        )
        for i, member in enumerate(d["ensemble"]):
            if not isinstance(member, dict):
                raise ConfigError(f"ensemble[{i}] must be an object")
            _check_keys(member, {"name", "sharpness", "noise"}, f"ensemble[{i}]")
            for key in ("name", "sharpness", "noise"):
                _require(key in member, f"ensemble[{i}] is missing {key!r}")
            _require(isinstance(member["name"], str), f"ensemble[{i}].name must be a string")
            for key in ("sharpness", "noise"):
                _require(is_number(member[key]), f"ensemble[{i}].{key} must be a number")
        names = [m["name"] for m in d["ensemble"]]
        _require(len(set(names)) == len(names), "ensemble member names must be unique")
        samp = d["sampling"]
        _require(samp["temperature"] > 0, "sampling.temperature must be positive")
        _require(0 < samp["top_p"] <= 1, "sampling.top_p must be in (0, 1]")
        _require(
            1 <= samp["max_length"] <= MAX_SPACE,
            f"sampling.max_length must be in [1, {MAX_SPACE}]",
        )
        _require(samp["n_samples"] >= 1, "sampling.n_samples must be >= 1")
        _require(0 < d["data"]["split_fraction"] < 1, "data.split_fraction must be in (0, 1)")
        objd = d["objective"]
        _require(objd["kind"] in KINDS, f"objective.kind must be one of {KINDS}")
        _require(objd["pairing"] in ("on_policy", "hybrid"), "objective.pairing invalid")
        sched = d["schedule"]
        _require(sched["kind"] in SCHEDULE_KINDS, f"schedule.kind must be one of {SCHEDULE_KINDS}")
        _require(0 <= sched["target"] <= 1, "schedule.target must be in [0, 1]")
        if sched["total_steps"] is not None:
            _require(sched["total_steps"] >= 1, "schedule.total_steps must be >= 1 or null")
        for stage in ("sft", "po"):
            st = d[stage]
            _require(st["epochs"] >= 0, f"{stage}.epochs must be >= 0")
            _require(st["batch_size"] >= 1, f"{stage}.batch_size must be >= 1")
            opt = st["optimizer"]
            _require(opt["kind"] in OPTIMIZER_KINDS, f"{stage}.optimizer.kind invalid")
            _require(opt["schedule"] in LR_SCHEDULES, f"{stage}.optimizer.schedule invalid")
            _require(opt["step_size"] > 0, f"{stage}.optimizer.step_size must be positive")
            _require(
                0 <= opt["warmup_fraction"] < 1,
                f"{stage}.optimizer.warmup_fraction must be in [0, 1)",
            )
        _require(0 <= d["po"]["eval_holdout_fraction"] < 1, "po.eval_holdout_fraction must be in [0, 1)")
        _require(d["po"]["eval_every"] >= 0, "po.eval_every must be >= 0")
        _require(d["eval"]["n_prompts"] >= 1, "eval.n_prompts must be >= 1")
        _require(d["eval"]["samples_per_prompt"] >= 1, "eval.samples_per_prompt must be >= 1")
        # Try constructing the typed configs so their own checks run early.
        try:
            self.objective_config()
            self.optimizer_config("sft")
            self.optimizer_config("po")
        except InputError as exc:
            raise ConfigError(str(exc)) from None
        return self

    # -- builders ------------------------------------------------------------
    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def out_dir(self) -> str:
        return self.raw["out_dir"]

    def vocabulary(self) -> Vocabulary:
        return default_vocabulary(self.raw["task"]["n_content_tokens"])

    def oracle(self) -> BigramRewardOracle:
        task = self.raw["task"]
        return make_oracle(
            self.vocabulary(), seed=task["oracle_seed"], length_penalty=task["length_penalty"]
        )

    def prompts(self) -> list[tuple[int, ...]]:
        task = self.raw["task"]
        return make_prompts(
            self.vocabulary(),
            task["n_prompts"],
            prompt_length=task["prompt_length"],
            seed=derive_seed(self.seed, stream_salt("prompts")),
        )

    def eval_prompts(self) -> list[tuple[int, ...]]:
        task, ev = self.raw["task"], self.raw["eval"]
        return make_prompts(
            self.vocabulary(),
            ev["n_prompts"],
            prompt_length=task["prompt_length"],
            seed=derive_seed(ev["prompt_seed"], stream_salt("eval-prompts")),
        )

    def sampling_config(self) -> SamplingConfig:
        samp = self.raw["sampling"]
        return SamplingConfig(
            temperature=samp["temperature"],
            top_p=samp["top_p"],
            max_length=samp["max_length"],
            seed=self.seed,
        )

    def n_samples(self) -> int:
        return self.raw["sampling"]["n_samples"]

    def ensemble(self) -> SourceEnsemble:
        task = self.raw["task"]
        specs = [(m["name"], m["sharpness"], m["noise"]) for m in self.raw["ensemble"]]
        return make_source_ensemble(
            self.vocabulary(),
            task["context_order"],
            self.oracle(),
            specs,
            seed=derive_seed(self.seed, stream_salt("ensemble")),
        )

    def target_init(self) -> PolicyModel:
        task = self.raw["task"]
        return PolicyModel.random_init(
            self.vocabulary(),
            order=task["context_order"],
            scale=task["target_init_scale"],
            seed=derive_seed(self.seed, stream_salt("target-init")),
        )

    def objective_config(self) -> ObjectiveConfig:
        objd = self.raw["objective"]
        return ObjectiveConfig(
            kind=objd["kind"],
            beta=objd["beta"],
            tau=objd["tau"],
            gamma=objd["gamma"],
        )

    def pairing(self) -> str:
        return self.raw["objective"]["pairing"]

    def fusion_schedule(self, total_steps: int) -> FusionSchedule:
        sched = self.raw["schedule"]
        steps = sched["total_steps"] if sched["total_steps"] is not None else total_steps
        return FusionSchedule(kind=sched["kind"], target=sched["target"], total_steps=max(1, steps))

    def optimizer_config(self, stage: str) -> OptimizerConfig:
        opt = self.raw[stage]["optimizer"]
        return OptimizerConfig(
            kind=opt["kind"],
            step_size=opt["step_size"],
            schedule=opt["schedule"],
            warmup_fraction=opt["warmup_fraction"],
        )


def load_config(
    path: str | None = None,
    overrides: dict | None = None,
    seed: int | None = None,
    out_dir: str | None = None,
) -> RunConfig:
    """Merge a config file over the defaults and validate the result.

    CLI flags (seed, out) beat the file; the MICROWRPO_OUT environment
    variable beats both for the output directory.
    """
    data: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:  # a directory, or a file that cannot be read
            raise ConfigError(f"{path}: cannot read config ({exc.strerror})") from exc
        except ValueError as exc:  # JSONDecodeError, or an int literal too long to convert
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")
    merged = _merge(default_config_dict(), data, "config")
    if overrides:
        merged = _merge(merged, overrides, "overrides")
    if seed is not None:
        merged["seed"] = seed
    if out_dir is not None:
        merged["out_dir"] = out_dir
    env_out = os.environ.get("MICROWRPO_OUT")
    if env_out:
        merged["out_dir"] = env_out
    return RunConfig(raw=merged).validate()


def write_resolved_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(cfg.raw, fh, indent=2, sort_keys=True)
        fh.write("\n")
