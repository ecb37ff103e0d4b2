"""Shared fixtures: toy environments built once per session."""

from __future__ import annotations

from functools import lru_cache

import pytest

from microwrpo import pipeline
from microwrpo.config import load_config


@lru_cache(maxsize=8)
def pipeline_env(seed: int):
    """The CLI's stages for one root seed on the default config, with 50 of the
    200 regenerated PO pairs held out, so tests exercise the trajectories users get."""
    cfg = load_config(seed=seed).with_overrides({"po": {"eval_holdout_fraction": 0.25}})
    data = pipeline.build_dataset(cfg)
    snapshot, _ = pipeline.sft(cfg, data.quadruples)
    _, train, heldout = pipeline.prepare_po(cfg, snapshot, data.quadruples)
    return {
        "cfg": cfg,
        "oracle": cfg.oracle(),
        "target_init": data.target_init,
        "quadruples": data.quadruples,
        "snapshot": snapshot,
        "po_train": train,
        "po_heldout": heldout,
    }


@pytest.fixture(scope="session")
def env_seed0():
    return pipeline_env(0)
