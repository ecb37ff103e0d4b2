"""Span recorder for a traced benchmark repetition.

The tracer wraps the program's public functions from the outside: for
each layer it looks up the defining function, then replaces that object
at every module of the ``microwrpo`` package that imported it (and the
class attribute for methods), so ``datagen.sample_response`` and
``trainer.sample_response`` are both traced. Files opened by the package
in a ``with`` block are traced as the ``io`` layer through an ``open``
placed in each module's namespace.

A layer whose defining function no longer exists is reported as
unmeasured instead of as zero.

Spans are kept in memory as (name id, start, end, parent index) and
written out once the command has returned; the parent process computes
self times from them.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import os
import sys
import time
from collections import Counter

# layer -> (module, attribute path) of every function whose calls are its spans.
TIMED_LAYERS = {
    "policy.sample": [("microwrpo.policy", "sample_response")],
    "policy.derive_rng": [("microwrpo.policy", "derive_rng")],
    "policy.logprob": [("microwrpo.policy", "sequence_log_prob")],
    "policy.grad": [("microwrpo.policy", "log_prob_gradient")],
    "datagen.oracle": [("microwrpo.datagen", "BigramRewardOracle.score")],
    "datagen.generate": [("microwrpo.datagen", "generate_candidates")],
    "datagen.assemble": [("microwrpo.datagen", "assemble_quadruples")],
    "datagen.deviation": [("microwrpo.datagen", "distribution_deviation_report")],
    "objectives.loss": [("microwrpo.objectives", "evaluate_loss")],
    "objectives.param_grad": [("microwrpo.objectives", "loss_gradient_wrt_params")],
    "trainer.optimizer": [("microwrpo.trainer", "Optimizer.step")],
    "trainer.po_loop": [("microwrpo.trainer", "run_preference_optimization")],
    "trainer.regen": [("microwrpo.trainer", "regenerate_target_pairs")],
    "trainer.eval_quality": [("microwrpo.trainer", "eval_policy_quality")],
    "trainer.eval_accuracy": [("microwrpo.trainer", "eval_reward_accuracy")],
    "trainer.sft": [("microwrpo.trainer", "run_sft")],
    "io": [
        ("microwrpo.policy", "save_checkpoint"),
        ("microwrpo.policy", "load_checkpoint"),
        ("microwrpo.datagen", "write_quadruples"),
        ("microwrpo.datagen", "read_quadruples"),
        ("microwrpo.datagen", "write_attribution_csv"),
        ("microwrpo.trainer", "write_telemetry"),
        ("microwrpo.trainer", "read_telemetry"),
        ("microwrpo.config", "write_resolved_config"),
    ],
    "config.build": [
        ("microwrpo.config", "load_config"),
        *(
            ("microwrpo.config", f"RunConfig.{name}")
            for name in (
                "validate",
                "vocabulary",
                "oracle",
                "prompts",
                "eval_prompts",
                "sampling_config",
                "ensemble",
                "target_init",
                "objective_config",
                "fusion_schedule",
                "optimizer_config",
            )
        ),
    ],
}

# layer -> functions whose calls are only counted (too cheap to time).
COUNTED_LAYERS = {"schedule.alpha_at": [("microwrpo.schedule", "alpha_at")]}

ROOT_SPAN = "cli"


def _now() -> float:
    return time.perf_counter()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.unmeasured: set[str] = set()
        self.sample_keys: set = set()
        self._last_rng = None
        self._fingerprints: dict[int, tuple] = {}

    # -- recording -----------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((self._name_id(name), _now(), None, self.stack[-1]))
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        end = _now()
        self.stack.pop()
        name_id, start, _, parent = self.spans[idx]
        self.spans[idx] = (name_id, start, end, parent)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def timed(self, name: str, fn, post=None):
        """fn wrapped in a span named ``name``; ``post(args, kwargs, result)`` runs after it."""
        name_id = self._name_id(name)
        spans, stack = self.spans, self.stack

        # begin/end inlined: this runs up to ~10^5 times per traced command.
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-layer counters ----------------------------------------------------
    def _after_derive_rng(self, args, kwargs, rng):
        self._last_rng = (rng, tuple(int(a) for a in args))

    def _after_sample(self, args, kwargs, seq):
        model, prompt, cfg = args[:3]
        rng = kwargs.get("rng", args[3] if len(args) > 3 else None)
        truncated = len(seq.response) == cfg.max_length + 1
        self.counts["policy.sample.tokens"] += len(seq.response) - truncated
        self.counts["policy.sample.truncated"] += truncated
        if self._last_rng is not None and self._last_rng[0] is rng:
            stream = self._last_rng[1]
        else:
            stream = ("unkeyed", len(self.spans))
        self.sample_keys.add((self._fingerprint(model), tuple(prompt), stream, cfg))

    def _fingerprint(self, model) -> str:
        hit = self._fingerprints.get(id(model))
        if hit is not None:
            return hit[1]
        fp = hashlib.sha256(model.logits.tobytes()).hexdigest()
        if getattr(model, "frozen", False):
            # Holding the model keeps its id from being reused.
            self._fingerprints[id(model)] = (model, fp)
        return fp

    def _after_assemble(self, args, kwargs, result):
        self._count_degenerate(result[0])

    def _after_regen(self, args, kwargs, result):
        self._count_degenerate(result)

    def _count_degenerate(self, quadruples):
        self.counts["datagen.degenerate_pairs"] += sum(
            q.y_wt.score == q.y_l.score for q in quadruples
        )

    def open(self, file, mode="r", *args, **kwargs):
        return _TracedFile(self, file, mode, args, kwargs)

    # -- installation ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every binding of every layer's functions in the loaded package."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "microwrpo" or name.startswith("microwrpo."))
        ]
        post = {
            "policy.sample": self._after_sample,
            "policy.derive_rng": self._after_derive_rng,
            "datagen.assemble": self._after_assemble,
            "trainer.regen": self._after_regen,
        }
        for layer, targets in {**TIMED_LAYERS, **COUNTED_LAYERS}.items():
            resolved = [_resolve(mod, path) for mod, path in targets]
            if any(r is None for r in resolved):
                self.unmeasured.add(layer)
                continue
            for owner, attr in resolved:
                orig = getattr(owner, attr)
                if layer in COUNTED_LAYERS:
                    wrapper = self.counted(layer, orig)
                else:
                    wrapper = self.timed(layer, orig, post.get(layer))
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    continue
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is orig]:
                        setattr(m, key, wrapper)
        for m in modules:
            if "open" not in vars(m):
                m.open = self.open

    def run_root(self, fn, *args):
        idx = self.begin(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self.end(idx)

    def dump(self, path) -> None:
        policy = sys.modules.get("microwrpo.policy")
        cache = getattr(policy, "_CONTEXT_CACHE", None)
        payload = {
            "names": self.names,
            "spans": [list(s) for s in self.spans if s is not None and s[2] is not None],
            "counts": dict(self.counts),
            "sample_unique": len(self.sample_keys),
            "context_cache_entries": 0 if cache is None else len(cache),
            "unmeasured": sorted(self.unmeasured),
        }
        with builtins.open(path, "w") as fh:
            json.dump(payload, fh)


class _TracedFile:
    """``with open(...)`` as an io span; counts the bytes of the file read or written."""

    def __init__(self, tracer: Tracer, file, mode, args, kwargs):
        self.tracer = tracer
        self.file = file
        self.mode = mode
        self.args = args
        self.kwargs = kwargs

    def __enter__(self):
        self.idx = self.tracer.begin("io")
        try:
            self.fh = builtins.open(self.file, self.mode, *self.args, **self.kwargs)
        except BaseException:
            self.tracer.end(self.idx)
            raise
        if "r" in self.mode:
            self.tracer.counts["io.bytes_read"] += os.fstat(self.fh.fileno()).st_size
        return self.fh.__enter__()

    def __exit__(self, *exc):
        try:
            return self.fh.__exit__(*exc)
        finally:
            if "r" not in self.mode:
                self.tracer.counts["io.bytes_written"] += os.path.getsize(self.file)
            self.tracer.end(self.idx)


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path inside a module, or None if it is gone."""
    owner = sys.modules.get(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None
    return owner, attr
