"""Desk-scale lab for weighted-reward preference optimization.

Tiny tabular autoregressive policies stand in for the target, reference,
and source models; a deterministic bigram-affinity oracle stands in for
the external reward model. On top of that substrate the package provides
the full preference-objective family (DPO, IPO, SimPO, and their
weighted-reward hybrids), the quadruple data-construction pipeline, the
two-stage SFT + preference-optimization trainer with per-step telemetry,
and a CLI for config-driven runs, alpha sweeps, and figure exports.
"""

import os

# One OpenBLAS thread unless the user set a count: no numpy call in the package
# hands OpenBLAS work for a second thread, whose worker would otherwise spin
# idle for about 0.1 s of CPU in every command. OpenBLAS reads the variable
# when numpy loads, so this must run before the first numpy import below, and
# it has no effect if numpy was imported before microwrpo. It is set in
# os.environ, so subprocesses inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .objectives import (
    LossResult,
    ObjectiveConfig,
    RoleLogProb,
    compound_reward,
    internal_reward,
)
from .policy import PolicyModel, SamplingConfig, Sequence, Vocabulary
from .schedule import FusionSchedule, alpha_at

__version__ = "0.1.0"

__all__ = [
    "LossResult",
    "ObjectiveConfig",
    "RoleLogProb",
    "compound_reward",
    "internal_reward",
    "PolicyModel",
    "SamplingConfig",
    "Sequence",
    "Vocabulary",
    "FusionSchedule",
    "alpha_at",
    "__version__",
]
