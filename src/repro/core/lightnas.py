"""The LightNAS search engine (§3.3–3.4): you only search once.

One search run takes a *hard* metric constraint T (latency in ms, or any
metric with a fitted predictor) and returns an architecture whose predicted
metric converges to T, with no manual λ tuning:

* architecture parameters ``α`` are optimised by Adam *descent* on Eq. (10),
* supernet weights ``w`` (supernet mode) by SGD descent,
* the constraint multiplier ``λ`` by gradient *ascent* (Eq. 11).

Two validation-loss modes share the engine:

``mode="supernet"``
    The paper's bi-level protocol: a real weight-sharing supernet is trained
    on a (synthetic) proxy task; ``L_valid`` is cross-entropy of the sampled
    single path on validation batches.  The first ``warmup_epochs`` update
    only ``w`` (the paper freezes α for 10 of 90 epochs), then ``w`` and
    ``α`` updates alternate every epoch.

``mode="surrogate"``
    ``L_valid`` is the differentiable capacity loss of the
    :class:`repro.proxy.accuracy_model.AccuracyOracle` — the fast path used
    by the full-space benchmarks, where training a 22-layer ImageNet
    supernet on one CPU core is not an option.  The α/λ dynamics (the
    paper's contribution) are identical.

Since λ needs no tuning, a target sweep or a multi-seed study is a set of
independent searches.  :func:`run_grid` runs such a grid; in one process it
stacks the grid's surrogate searches into :class:`SearchBatch` es, each one
α-step for all its searches and bit-identical per search.  A lone surrogate
search is a batch of one.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..experiments.shared import fit_latency_predictor
from ..hardware.latency import LatencyModel
# not called here since the default predictor fits through
# fit_latency_predictor; kept as a module attribute because profilers wrap
# ``repro.core.lightnas.collect_latency_dataset`` by name
from ..predictor.dataset import collect_latency_dataset  # noqa: F401
from ..predictor.mlp import MLPPredictor
from ..proxy.accuracy_model import AccuracyOracle
from ..proxy.dataset import Batch, SyntheticTask
from ..proxy.supernet import SuperNet
from ..runtime.checkpoint import (
    CheckpointError,
    CheckpointManager,
    fingerprint_of,
    latest_checkpoint,
    load_checkpoint,
    resolve_checkpoint,
    restore_rng,
    rng_state_json,
)
from ..runtime import parallel
from ..runtime.parallel import FleetReport, FleetTask, RunFleet
from ..runtime.telemetry import NullJournal, PhaseTimers, RunJournal
from ..search_space.macro import MacroConfig
from ..search_space.space import SearchSpace
from .gumbel import (ALPHA_LR, ALPHA_WEIGHT_DECAY, GumbelSampler,
                     TemperatureSchedule, alpha_optimizer, alpha_schedule)
from .lambda_opt import LagrangeMultiplier
from .objective import ConstrainedObjective
from .result import SearchResult, SearchTrajectory

__all__ = ["LightNASConfig", "LightNAS", "SearchBatch", "run_grid",
           "METRIC_ALIASES", "CANONICAL_METRICS"]

#: canonical unit-suffixed metric names used across predictors and results
CANONICAL_METRICS = ("latency_ms", "energy_mj", "macs_m")

#: accepted shorthand → canonical name (normalised in one place:
#: :meth:`LightNASConfig.__post_init__`)
METRIC_ALIASES = {"latency": "latency_ms", "energy": "energy_mj",
                  "macs": "macs_m"}

#: SGD on the supernet weights w (supernet mode), as in §4.1: lr 0.1
#: (cosine-annealed), momentum 0.9, weight decay 3e-5
W_LR = 0.1
W_MOMENTUM = 0.9
W_WEIGHT_DECAY = 3e-5


@dataclass
class LightNASConfig:
    """Configuration of one LightNAS run.

    The defaults follow §4.1 where a setting exists in the paper (90
    epochs, 10 warmup epochs, Adam(1e-3, wd 1e-3) for α, SGD(0.1, 0.9,
    3e-5) for w, ascent lr 5e-4 for λ, τ: 5 → 0).
    """

    space: SearchSpace = field(default_factory=SearchSpace)
    target: float = 24.0
    metric_name: str = "latency_ms"
    mode: str = "surrogate"

    epochs: int = 90
    steps_per_epoch: int = 30
    warmup_epochs: int = 10
    batch_size: int = 128

    lambda_lr: float = 5e-4
    #: augmented-Lagrangian damping weight (0 disables; see objective.py)
    penalty_mu: float = 1.0

    tau_initial: float = 5.0
    tau_floor: float = 0.1

    seed: int = 0

    #: nn compute dtype of the supernet — "float64" (default) is
    #: bit-identical to the historical engine; "float32" halves memory
    #: traffic.  Supernet mode only: the surrogate search always runs in
    #: float64, so a surrogate config rejects "float32"
    compute_dtype: str = "float64"
    #: when True, per-op wall time is profiled and journalled every epoch
    profile_ops: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("surrogate", "supernet"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.compute_dtype not in ("float64", "float32"):
            raise ValueError(
                f"unknown compute_dtype {self.compute_dtype!r}; expected "
                "'float64' or 'float32'"
            )
        if self.compute_dtype != "float64" and self.mode == "surrogate":
            raise ValueError(
                f"compute_dtype {self.compute_dtype!r} has no effect on a "
                f"surrogate search, which always runs in float64; --dtype "
                f"applies only to --tiny supernet searches "
                f"(repro search --tiny)"
            )
        if self.target <= 0:
            raise ValueError("constraint target must be positive")
        for name, value in (("epochs", self.epochs),
                            ("steps_per_epoch", self.steps_per_epoch)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.epochs <= self.warmup_epochs and self.mode == "supernet":
            raise ValueError("epochs must exceed warmup_epochs in supernet mode")
        self.metric_name = METRIC_ALIASES.get(self.metric_name, self.metric_name)
        if self.metric_name not in CANONICAL_METRICS:
            raise ValueError(
                f"unknown metric {self.metric_name!r}; expected one of "
                f"{CANONICAL_METRICS} (or shorthand {tuple(METRIC_ALIASES)})"
            )

    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, latency_target_ms: float, space: Optional[SearchSpace] = None,
              seed: int = 0, **overrides) -> "LightNASConfig":
        """Full-space configuration with the paper's hyper-parameters.

        Uses surrogate mode by default (see module docstring); pass
        ``mode="supernet"`` plus a task for the bi-level protocol.
        """
        defaults = dict(
            space=space or SearchSpace(),
            target=latency_target_ms,
            epochs=90,
            steps_per_epoch=50,
            lambda_lr=0.01,
            seed=seed,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def tiny(cls, latency_target_ms: float = 1.0, seed: int = 0,
             mode: str = "supernet", **overrides) -> "LightNASConfig":
        """Scaled-down configuration for tests / the quickstart example."""
        defaults = dict(
            space=SearchSpace(MacroConfig.tiny()),
            target=latency_target_ms,
            mode=mode,
            epochs=16,
            steps_per_epoch=4,
            warmup_epochs=2,
            batch_size=16,
            lambda_lr=0.05,
            seed=seed,
        )
        defaults.update(overrides)
        return cls(**defaults)


class LightNAS:
    """The one-time hardware-constrained differentiable search.

    Parameters
    ----------
    config:
        Run configuration.
    predictor:
        A fitted metric predictor.  If omitted, a latency predictor is
        trained on a fresh simulated measurement campaign of
        :meth:`predictor_recipe` (1,500 samples from ``seed + 101`` —
        enough for search-grade accuracy; the benchmarks use the full
        10,000-sample protocol).  That fit touches no file; ``repro search
        --tiny`` loads the same fit from the campaign cache instead of
        refitting (see :mod:`repro.experiments.shared`).
    oracle:
        Accuracy oracle for surrogate mode (defaults to the calibrated
        ImageNet oracle of the config's space).
    task:
        Proxy classification task for supernet mode (defaults to a
        :class:`SyntheticTask` matching the macro resolution).
    """

    def __init__(
        self,
        config: LightNASConfig,
        predictor: Optional[MLPPredictor] = None,
        oracle: Optional[AccuracyOracle] = None,
        task: Optional[SyntheticTask] = None,
    ) -> None:
        self.config = config
        self.space = config.space
        self.rng = np.random.default_rng(config.seed)
        self.predictor = predictor or self._default_predictor()
        self.objective = ConstrainedObjective(self.predictor, config.target,
                                              mu=config.penalty_mu)
        self.oracle = oracle
        self.task = task
        self.supernet: Optional[SuperNet] = None
        if config.mode == "surrogate" and self.oracle is None:
            self.oracle = AccuracyOracle(self.space)
        if config.mode == "supernet":
            if self.task is None:
                macro = self.space.macro
                self.task = SyntheticTask(
                    num_classes=macro.num_classes,
                    resolution=macro.input_resolution,
                    seed=config.seed,
                )
            # supernet weights live in the configured compute dtype;
            # float64 (default) keeps seeded searches bit-identical
            with nn.dtype_scope(config.compute_dtype):
                self.supernet = SuperNet(self.space, self.rng)

    @staticmethod
    def predictor_recipe(seed: int) -> dict:
        """Campaign + fit recipe of the default predictor for ``seed``:
        keyword arguments of :func:`repro.experiments.shared.
        fit_latency_predictor` (``repro search --tiny`` passes them with the
        cache on, so its cached fit is this exact predictor)."""
        return dict(seed=seed + 101, num_samples=1500, init_seed=seed,
                    epochs=120, batch_size=256)

    def _default_predictor(self) -> MLPPredictor:
        predictor, _ = fit_latency_predictor(
            self.space, LatencyModel(self.space), use_cache=False,
            **self.predictor_recipe(self.config.seed))
        return predictor

    # ------------------------------------------------------------------
    def _fingerprint(self) -> str:
        """Hash of everything that determines the search dynamics."""
        return _config_key(self.config)

    def _fresh_state(self) -> "_SearchState":
        cfg = self.config
        alpha = nn.Parameter(self.space.uniform_alpha(), name="alpha")
        w_opt = None
        if cfg.mode == "supernet":
            w_opt = nn.SGD(self.supernet.parameters(), lr=W_LR,
                           momentum=W_MOMENTUM, weight_decay=W_WEIGHT_DECAY)
        return _SearchState(
            alpha=alpha,
            alpha_opt=alpha_optimizer(alpha),
            lam=LagrangeMultiplier(lr=cfg.lambda_lr),
            trajectory=SearchTrajectory(),
            w_opt=w_opt,
        )

    def _start(self, resume_from: Optional[str]) -> "_SearchState":
        """The state a search starts from: fresh, or restored from
        ``resume_from`` (a checkpoint file, or a directory's latest)."""
        state = self._fresh_state()
        if resume_from is not None:
            self._restore_state(resolve_checkpoint(resume_from), state)
        return state

    def _capture_state(self, epoch: int, state: "_SearchState"
                       ) -> Tuple[Dict, Dict]:
        """Snapshot the full search state at the *end* of ``epoch``."""
        meta = {
            "kind": "lightnas",
            "fingerprint": self._fingerprint(),
            "next_epoch": epoch + 1,
            "steps": state.steps,
            "rng_state": rng_state_json(self.rng),
        }
        arrays: Dict[str, np.ndarray] = {
            "alpha": state.alpha.data.copy(),
            "lambda": state.lam.param.data.copy(),
            "lambda_history": np.array(state.lam.history, dtype=np.float64),
        }
        for key, value in state.alpha_opt.state_arrays().items():
            arrays[f"alpha_opt.{key}"] = value
        arrays.update(state.trajectory.as_arrays())
        if self.config.mode == "supernet":
            meta["task_rng_state"] = rng_state_json(self.task._batch_rng)
            for key, value in self.supernet.state_dict().items():
                arrays[f"net.{key}"] = value
            for key, value in state.w_opt.state_arrays().items():
                arrays[f"w_opt.{key}"] = value
        return meta, arrays

    def _restore_state(self, path: str, state: "_SearchState") -> None:
        """Restore a checkpoint into ``state`` (and the engine's RNGs)."""
        meta, arrays = load_checkpoint(path)
        if meta.get("kind") != "lightnas":
            raise CheckpointError(
                f"checkpoint {path!r} belongs to engine {meta.get('kind')!r}, "
                f"not to LightNAS"
            )
        if meta.get("fingerprint") != self._fingerprint():
            raise CheckpointError(
                f"checkpoint {path!r} was written by a run with a different "
                f"configuration (target/space/seed/hyper-parameters); resume "
                f"with the original configuration or start a fresh search"
            )
        try:
            # in-place copies: parameter arrays keep their identity so any
            # compiled step plans stay bound to the live α / λ storage
            np.copyto(state.alpha.data, arrays["alpha"])
            state.alpha_opt.load_state_arrays({
                key[len("alpha_opt."):]: value
                for key, value in arrays.items() if key.startswith("alpha_opt.")
            })
            np.copyto(state.lam.param.data, arrays["lambda"])
            state.lam.history = [float(x) for x in arrays["lambda_history"]]
            restore_rng(self.rng, meta["rng_state"])
            if self.config.mode == "supernet":
                self.supernet.load_state_dict({
                    key[len("net."):]: value
                    for key, value in arrays.items() if key.startswith("net.")
                })
                state.w_opt.load_state_arrays({
                    key[len("w_opt."):]: value
                    for key, value in arrays.items() if key.startswith("w_opt.")
                })
                restore_rng(self.task._batch_rng, meta["task_rng_state"])
            state.trajectory = SearchTrajectory.from_arrays(arrays)
            state.start_epoch = int(meta["next_epoch"])
            state.steps = int(meta["steps"])
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} is missing or mismatching state "
                f"({exc}); it does not fit this run — delete it and restart "
                f"the search"
            ) from exc

    # ------------------------------------------------------------------
    def search(
        self,
        verbose: bool = False,
        *,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 10,
        resume_from: Optional[str] = None,
        journal: Optional[RunJournal] = None,
        _batch: Optional[Tuple["SearchBatch", int]] = None,
    ) -> SearchResult:
        """Run the one-time search and return the derived architecture.

        Parameters
        ----------
        checkpoint_dir / checkpoint_every:
            If set, snapshot the full search state to
            ``checkpoint_dir/ckpt_epochNNNNN.npz`` after every
            ``checkpoint_every``-th epoch (atomic writes).
        resume_from:
            A checkpoint file, or a directory whose latest checkpoint is
            used.  The engine must be constructed with the *same*
            configuration that wrote the checkpoint (enforced by a config
            fingerprint); the resumed run then continues bit-for-bit: an
            interrupted-and-resumed search returns a :class:`SearchResult`
            identical to an uninterrupted one.
        journal:
            A :class:`repro.runtime.telemetry.RunJournal` receiving
            structured per-epoch events (defaults to the no-op journal).
        """
        # the search runs in float64 whatever the caller's default dtype;
        # supernet mode scopes its compute dtype inside
        with nn.dtype_scope("float64"):
            return self._search(verbose, checkpoint_dir, checkpoint_every,
                                resume_from, journal, _batch)

    def _search(self, verbose: bool, checkpoint_dir: Optional[str],
                checkpoint_every: int, resume_from: Optional[str],
                journal: Optional[RunJournal],
                slot: Optional[Tuple["SearchBatch", int]]) -> SearchResult:
        cfg = self.config
        supernet = cfg.mode == "supernet"
        journal = journal if journal is not None else NullJournal()
        timers = PhaseTimers()
        run_start = time.perf_counter()
        schedule = TemperatureSchedule(cfg.tau_initial, cfg.tau_floor, cfg.epochs)
        sampler = GumbelSampler(schedule, self.rng)
        header = {}
        if supernet:
            state = self._start(resume_from)
            alpha_sched = alpha_schedule(cfg.epochs)
            w_schedule = nn.CosineSchedule(W_LR, cfg.epochs)
        else:
            # the surrogate α-epochs run as one row of a stacked batch: the
            # one run_grid built for this search (which loaded its start
            # state), or a batch of one
            if slot is None:
                slot = SearchBatch([self], [self._start(resume_from)]), 0
            batch, row = slot
            state = batch.states[row]
            header["batch_slots"] = batch.size

        manager = (CheckpointManager(checkpoint_dir, every=checkpoint_every)
                   if checkpoint_dir else None)
        journal.run_header(
            engine="lightnas",
            mode=cfg.mode,
            metric_name=cfg.metric_name,
            target=cfg.target,
            seed=cfg.seed,
            epochs=cfg.epochs,
            steps_per_epoch=cfg.steps_per_epoch,
            space_layers=self.space.num_layers,
            space_operators=self.space.num_operators,
            start_epoch=state.start_epoch,
            fingerprint=self._fingerprint(),
            **header,
        )

        for epoch in range(state.start_epoch, cfg.epochs):
            epoch_start = time.perf_counter()
            epoch_scope = (nn.profiler.profile() if cfg.profile_ops
                           else nullcontext(None))
            with epoch_scope as op_prof:
                if supernet:
                    alpha_sched.apply(state.alpha_opt, epoch)
                    w_schedule.apply(state.w_opt, epoch)
                    with timers.phase("train_weights"):
                        self._train_weights_epoch(sampler, state.alpha,
                                                  state.w_opt, epoch)
                    if epoch >= cfg.warmup_epochs:
                        with timers.phase("update_alpha"):
                            epoch_steps, mean_loss = self._update_alpha_epoch(
                                sampler, state, epoch)
                        state.steps += epoch_steps
                    else:
                        with timers.phase("warmup_eval"):
                            mean_loss = self._warmup_valid_loss(
                                sampler, state.alpha, epoch)
                else:
                    with timers.phase("update_alpha"):
                        epoch_steps, mean_loss = batch.run_epoch(row, epoch)
                    state.steps += epoch_steps

                with timers.phase("derive"):
                    arch = sampler.derive_architecture(state.alpha)
                    predicted = self.predictor.predict_arch(arch)
            lam = state.lam
            state.trajectory.record(epoch, predicted, lam.value, mean_loss,
                                    schedule.at(epoch), arch)
            epoch_fields = dict(
                epoch=epoch,
                predicted_metric=round(float(predicted), 6),
                target=cfg.target,
                **{"lambda": round(lam.value, 6)},
                tau=round(schedule.at(epoch), 6),
                valid_loss=round(float(mean_loss), 6),
                architecture=list(arch.op_indices),
                wall_time_s=round(time.perf_counter() - epoch_start, 6),
            )
            if op_prof is not None:
                epoch_fields["op_profile"] = op_prof.as_dict()
                layers = op_prof.layers()
                if layers:
                    epoch_fields["layer_profile"] = layers
            if not supernet:
                epoch_fields["plan_stats"] = batch.plan_stats(row)
            journal.epoch(**epoch_fields)
            if verbose:
                print(
                    f"[lightnas] epoch {epoch:3d} metric {predicted:7.3f} "
                    f"(target {cfg.target}) λ {lam.value:+.4f}"
                )
            if manager is not None and manager.due(epoch):
                with timers.phase("checkpoint"):
                    meta, arrays = self._capture_state(epoch, state)
                    path = manager.save(epoch, meta, arrays)
                journal.event("checkpoint", epoch=epoch, path=path)

        arch = sampler.derive_architecture(state.alpha)
        result = SearchResult(
            architecture=arch,
            predicted_metric=self.predictor.predict_arch(arch),
            target=cfg.target,
            final_lambda=state.lam.value,
            trajectory=state.trajectory,
            search_paths_per_step=self.space.num_layers,
            num_search_steps=state.steps,
            metric_name=cfg.metric_name,
        )
        end_fields = dict(
            final_predicted_metric=round(result.predicted_metric, 6),
            final_lambda=round(result.final_lambda, 6),
            constraint_error=round(result.constraint_error, 6),
            architecture=list(arch.op_indices),
            num_search_steps=state.steps,
            wall_time_s=round(time.perf_counter() - run_start, 6),
            phase_timers=timers.as_dict(),
        )
        if not supernet:
            end_fields["plan_stats"] = batch.plan_stats(row)
        journal.run_end(**end_fields)
        return result

    # ------------------------------------------------------------------
    def _train_weights_epoch(self, sampler: GumbelSampler, alpha: nn.Parameter,
                             w_opt: nn.Optimizer, epoch: int) -> None:
        """One epoch of supernet weight training on the train fold."""
        cfg = self.config
        self.supernet.train(True)
        with nn.dtype_scope(cfg.compute_dtype):
            for _ in range(cfg.steps_per_epoch):
                batch = self.task.sample_batch(self.task.train, cfg.batch_size)
                with nn.no_grad():
                    _, gates_const = sampler.sample_gates(alpha.detach(), epoch)
                # drop the previous step's gradients before the forward, so
                # its buffers are free for reuse
                w_opt.zero_grad()
                logits = self.supernet.forward_single_path(
                    nn.Tensor(batch.images), nn.Tensor(gates_const.data)
                )
                loss = F.cross_entropy(logits, batch.labels)
                loss.backward()
                w_opt.step()

    def _update_alpha_epoch(self, sampler: GumbelSampler,
                            state: "_SearchState",
                            epoch: int) -> Tuple[int, float]:
        """One supernet epoch of α descent + λ ascent on Eq. (10).

        Returns ``(steps, mean_valid_loss)``.  The step's ops follow the
        sampled single path, which rarely comes round again, so supernet
        α-steps run eagerly (surrogate α-epochs run a compiled step in a
        :class:`SearchBatch`).  The supernet is frozen for the epoch: the
        α-step differentiates only α and λ (Eq. 12), so its backward
        computes no weight gradient and the stem and layer 0 build no tape.
        """
        cfg = self.config
        alpha, alpha_opt, lam = state.alpha, state.alpha_opt, state.lam
        steps = 0
        loss_sum = 0.0

        def valid_loss(gates, ts):
            logits = self.supernet.forward_single_path(ts["images"], gates)
            return F.cross_entropy(logits, targets=ts["targets"])

        self.supernet.train(True)
        self.supernet.set_trainable(False)
        try:
            with nn.dtype_scope(cfg.compute_dtype):
                for _ in range(cfg.steps_per_epoch):
                    alpha_opt.zero_grad()
                    lam.param.zero_grad()
                    batch = self.task.sample_batch(self.task.valid,
                                                   cfg.batch_size)
                    inv_tau = 1.0 / sampler.schedule.at(epoch)
                    ts = {"noise": nn.Tensor(sampler.draw_noise(alpha.shape)),
                          "inv_tau": nn.Tensor(inv_tau),
                          "images": nn.Tensor(batch.images),
                          "targets": nn.Tensor(F.one_hot(
                              batch.labels, self.space.macro.num_classes))}
                    out = _alpha_step(sampler, alpha, lam.as_tensor(),
                                      self.objective, valid_loss, ts)
                    out["loss"].backward()
                    alpha_opt.step()
                    loss_sum += float(out["valid_loss"].data)
                    lam.ascend()
                    steps += 1
        finally:
            self.supernet.set_trainable(True)
        return steps, loss_sum / max(steps, 1)

    def _warmup_valid_loss(self, sampler: GumbelSampler, alpha: nn.Parameter,
                           epoch: int) -> float:
        """Honest validation loss for warmup epochs (no α update runs).

        Evaluates the current deterministic architecture on one validation
        batch drawn with a *stateless* per-epoch generator, so the
        checkpointed RNG streams (Gumbel noise, task batches) that drive
        the search dynamics are untouched.
        """
        cfg = self.config
        _, gates = sampler.sample_gates(alpha.detach(), epoch,
                                        deterministic=True)
        eval_rng = np.random.default_rng((cfg.seed, 0xE7A1, epoch))
        idx = eval_rng.integers(len(self.task.valid), size=cfg.batch_size)
        batch = Batch(images=self.task.valid.images[idx],
                      labels=self.task.valid.labels[idx])
        was_training = self.supernet.training
        self.supernet.eval()
        try:
            # no_grad + tape-free ops: this eval allocates zero closures
            with nn.dtype_scope(cfg.compute_dtype), nn.no_grad():
                logits = self.supernet.forward_single_path(
                    nn.Tensor(batch.images), nn.Tensor(gates.data))
                loss = F.cross_entropy(logits, batch.labels)
        finally:
            self.supernet.train(was_training)
        return float(loss.data)


# ----------------------------------------------------------------------
# Search state, the α-step, and stacked batches of surrogate searches
# ----------------------------------------------------------------------

def _config_key(cfg: LightNASConfig, shared: bool = False) -> str:
    """Hash of everything that determines a search's dynamics (the
    checkpoint fingerprint).

    ``shared=True`` hashes what the slots of one :class:`SearchBatch` have
    in common: all of it but the target and the seed, plus ``profile_ops``.
    """
    target, seed = (None, None) if shared else (cfg.target, cfg.seed)
    parts = [
        "lightnas", cfg.mode, target, cfg.metric_name, cfg.epochs,
        cfg.steps_per_epoch, cfg.warmup_epochs, cfg.batch_size,
        ALPHA_LR, ALPHA_WEIGHT_DECAY, W_LR, W_MOMENTUM, W_WEIGHT_DECAY,
        cfg.lambda_lr, 0.0,  # λ starts at 0
        cfg.penalty_mu, cfg.tau_initial, cfg.tau_floor, seed,
        cfg.space.num_layers, cfg.space.num_operators,
        repr(cfg.space.macro),
    ]
    # appended only when non-default so historical float64 checkpoints
    # keep their fingerprints
    if cfg.compute_dtype != "float64":
        parts.append(cfg.compute_dtype)
    if shared:
        parts.append(cfg.profile_ops)
    return fingerprint_of(*parts)


@dataclass
class _SearchState:
    """One search's mutable state: what its checkpoints hold (with the
    engine's RNGs and, in supernet mode, the supernet weights)."""

    alpha: nn.Parameter
    alpha_opt: nn.Adam
    lam: LagrangeMultiplier
    trajectory: SearchTrajectory
    w_opt: Optional[nn.SGD] = None
    start_epoch: int = 0
    steps: int = 0


def _alpha_step(sampler: GumbelSampler, alpha: nn.Tensor, lam: nn.Tensor,
                objective: ConstrainedObjective,
                valid_loss: Callable[[nn.Tensor, Dict], nn.Tensor],
                ts: Dict[str, nn.Tensor]) -> Dict[str, nn.Tensor]:
    """The one α-step objective (Eq. 10): a supernet search runs it eagerly,
    a :class:`SearchBatch` compiles it as a :class:`nn.StepProgram` step.

    The per-step randomness (Gumbel noise, validation batch) and the
    annealed 1/τ are step *inputs* ``ts``.  The metric term uses the
    *deterministic* binarisation of α: Eq. (4) defines the architecture
    encoded by α as the per-layer argmax, so LAT(α) is the latency of that
    architecture, not of the Gumbel sample (with the sampled gates, λ's
    equilibrium pins the *expected* sampled latency to T while the derived
    argmax systematically undershoots).  Its STE recomputes the argmax
    live on replay.
    """
    # with noise and 1/τ given, the sampler's RNG and schedule are unused
    _, gates = sampler.sample_gates(alpha, 0, noise=ts["noise"],
                                    inv_tau=ts["inv_tau"])
    loss_valid = valid_loss(gates, ts)
    _, det_gates = sampler.sample_gates(alpha, 0, deterministic=True,
                                        inv_tau=ts["inv_tau"])
    loss, _ = objective.loss(loss_valid, det_gates, lam)
    return {"loss": loss, "valid_loss": loss_valid}


#: the step-count keys of ``StepProgram.stats`` (``arena_bytes`` aside)
_COUNTERS = ("plans_compiled", "replays", "eager_steps")


@dataclass
class _EpochEnd:
    """One slot's state at the end of one stacked epoch, parked until that
    slot's own search takes it."""

    alpha: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int
    lam: float
    lam_history: List[float]
    mean_loss: float
    rng_state: dict
    steps: int
    counts: Dict[str, int]


class SearchBatch:
    """S surrogate searches advanced as one stacked α-step.

    The slots share one predictor and every config field except
    ``target`` and ``seed``.  Slot ``s`` is row ``s`` of every stacked
    array:

    * α is one ``(S, L, K)`` Parameter under one Adam (one step count);
    * λ is one ``(S,)`` Parameter under one gradient ascent;
    * each slot draws its Gumbel noise from its own engine's generator
      into row ``s`` of one ``(S, L, K)`` step input; 1/τ is one shared
      input (the temperature schedule is shared);
    * the objective holds 1/T per slot, the oracle loss sums each slot's
      gates over axes (1, 2), and the predictor sees ``(S, 1, L·K)``.

    Every op is elementwise within a slot or reduces within one slot in
    the order a lone search does, so each slot's numbers are bit-identical
    to its own sequential search.  One :class:`nn.StepProgram` traces the
    stacked step once and replays it for all S slots, and an elementwise
    kernel on S slots costs little more than on one.

    Each slot's own ``LightNAS.search`` moves its state ``states[s]``
    through the epochs with :meth:`run_epoch`.
    """

    def __init__(self, engines: Sequence["LightNAS"],
                 states: Sequence[_SearchState]) -> None:
        lead, first = engines[0], states[0]
        cfg = lead.config
        shared = _config_key(cfg, shared=True)
        opt_states = [state.alpha_opt.state_arrays() for state in states]
        for engine, state, opt in zip(engines, states, opt_states):
            if (engine.config.mode != "surrogate"
                    or engine.predictor is not lead.predictor
                    or _config_key(engine.config, shared=True) != shared):
                raise ValueError(
                    "the slots of a SearchBatch must be surrogate searches "
                    "sharing one predictor and every config field but "
                    "target and seed")
            if ((state.start_epoch, state.steps, int(opt["t"]))
                    != (first.start_epoch, first.steps,
                        int(opt_states[0]["t"]))):
                raise ValueError("the slots of a SearchBatch must start at "
                                 "the same epoch")
        self.config = cfg
        self.size = len(engines)
        self.states = list(states)
        self.epoch = first.start_epoch
        self.alpha = nn.Parameter(np.stack([s.alpha.data for s in states]),
                                  name="alpha")
        self.alpha_opt = alpha_optimizer(self.alpha)
        self.alpha_opt.load_state_arrays({
            "t": opt_states[0]["t"],
            "m.0": np.stack([opt["m.0"] for opt in opt_states]),
            "v.0": np.stack([opt["v.0"] for opt in opt_states]),
        })
        self.alpha_schedule = alpha_schedule(cfg.epochs)
        self.lam = nn.Parameter([s.lam.value for s in states], name="lambda")
        self.lam_opt = nn.GradientAscent([self.lam], lr=cfg.lambda_lr,
                                         floor=None)
        schedule = TemperatureSchedule(cfg.tau_initial, cfg.tau_floor,
                                       cfg.epochs)
        self.samplers = [GumbelSampler(schedule, e.rng) for e in engines]
        self.objective = ConstrainedObjective(
            lead.predictor, [e.config.target for e in engines],
            mu=cfg.penalty_mu)
        self.oracle = lead.oracle
        self.program = nn.StepProgram("lightnas")
        self._step = functools.partial(
            _alpha_step, self.samplers[0], self.alpha, self.lam,
            self.objective,
            lambda gates, ts: self.oracle.differentiable_loss(gates))
        self._parked: List[Dict[int, _EpochEnd]] = [{} for _ in engines]
        self._counts = [dict.fromkeys(_COUNTERS, 0) for _ in engines]

    def run_epoch(self, row: int, epoch: int) -> Tuple[int, float]:
        """Move slot ``row``'s state (and its engine's RNG) to the end of
        ``epoch``; returns ``(steps, mean_valid_loss)``.  The first slot to
        need an epoch runs it for every slot; the others take its parked
        end state."""
        if epoch not in self._parked[row]:
            self._advance(epoch, lead=row)
        end = self._parked[row].pop(epoch)
        state = self.states[row]
        np.copyto(state.alpha.data, end.alpha)
        state.alpha_opt.load_state_arrays({"t": end.t, "m.0": end.m,
                                           "v.0": end.v})
        state.lam.param.data[0] = end.lam
        state.lam.history.extend(end.lam_history)
        self.samplers[row].rng.bit_generator.state = end.rng_state
        for key, count in end.counts.items():
            self._counts[row][key] += count
        return end.steps, end.mean_loss

    def plan_stats(self, row: int) -> Dict[str, int]:
        """Slot ``row``'s α-steps so far (each one traced, replayed or
        eager), with the plan's compile and arena on the slot that
        compiled it."""
        counts, plan = self._counts[row], self.program.plan
        compiled = counts["plans_compiled"] and plan is not None
        return {**counts, "arena_bytes": plan.nbytes if compiled else 0}

    def _advance(self, epoch: int, lead: int) -> None:
        """Advance every slot by epoch ``epoch`` (the batch's next one)
        and park each slot's end-of-epoch state.  ``lead`` is the slot
        whose search ran it: only its counters take the plan compile."""
        if epoch != self.epoch:
            raise RuntimeError(f"SearchBatch is at epoch {self.epoch}, "
                               f"cannot run epoch {epoch}")
        steps = self.config.steps_per_epoch
        self.alpha_schedule.apply(self.alpha_opt, epoch)
        inputs = {"noise": None,
                  "inv_tau": 1.0 / self.samplers[0].schedule.at(epoch)}
        loss_sums = np.zeros(self.size)
        lam_history = np.empty((self.size, steps))
        before = self.program.stats()
        rngs = [sampler.rng for sampler in self.samplers]
        shape = self.alpha.shape[1:]
        for step in range(steps):
            inputs["noise"] = F.gumbel_noise(shape, rngs)
            self.alpha_opt.zero_grad()
            self.lam.zero_grad()
            out = self.program.run(inputs, self._step)
            self.alpha_opt.step()
            loss_sums += out["valid_loss"]
            self.lam_opt.step()
            self.lam.zero_grad()
            lam_history[:, step] = self.lam.data
        after = self.program.stats()
        opt = self.alpha_opt.state_arrays()
        for row, sampler in enumerate(self.samplers):
            counts = {key: after[key] - before[key] for key in _COUNTERS}
            if row != lead:
                counts["plans_compiled"] = 0
            self._parked[row][epoch] = _EpochEnd(
                alpha=self.alpha.data[row].copy(), m=opt["m.0"][row],
                v=opt["v.0"][row], t=int(opt["t"]),
                lam=float(self.lam.data[row]),
                lam_history=lam_history[row].tolist(),
                mean_loss=float(loss_sums[row]) / max(steps, 1),
                rng_state=sampler.rng.bit_generator.state,
                steps=steps, counts=counts)
        self.epoch += 1


def run_grid(configs: Sequence[LightNASConfig], predictor: Any, *,
             jobs: int = 1, journal: Optional[RunJournal] = None,
             checkpoint_root: Optional[str] = None,
             checkpoint_every: int = 10, resume: bool = False,
             names: Optional[Sequence[str]] = None) -> FleetReport:
    """Run one search per config, all with ``predictor``.

    The grid is a :class:`RunFleet` with one task per search and ``jobs``
    workers, capped at the usable CPUs (more would only time-slice the
    same cores); each search keeps its own ``LightNAS.search`` call, journal
    (merged into ``journal``) and checkpoint sub-directory
    ``checkpoint_root/<name>``.  ``names`` name the tasks and
    sub-directories (default ``target_<T>_seed_<S>``; they must be
    unique), and ``resume`` starts each search from the latest checkpoint
    in its sub-directory.  The report's values are the searches'
    :class:`SearchResult` s, in config order.

    Each worker runs its share of the grid (:meth:`RunFleet.shares`; at
    ``jobs=1`` the whole grid) with its surrogate searches stacked: those
    sharing every config field but target and seed, and starting at the
    same epoch, run as one :class:`SearchBatch`.  Each result is
    bit-identical to the search run alone, at every ``jobs``.
    """
    if names is None:
        names = [f"target_{c.target:g}_seed_{c.seed}" for c in configs]
    if len(names) != len(configs):
        raise ValueError(f"{len(names)} names for {len(configs)} configs")
    if resume and not checkpoint_root:
        raise ValueError("resume needs a checkpoint_root")
    seen = set()
    for config in configs:
        key = _config_key(config)
        if key in seen:
            raise ValueError(f"the grid already holds the search with target "
                             f"{config.target:g} and seed {config.seed}")
        seen.add(key)
    fleet = RunFleet(jobs=min(jobs, parallel.usable_cpus()),
                     journal=journal, checkpoint_root=checkpoint_root)
    engines = [LightNAS(config, predictor=predictor) for config in configs]
    resume_from = [latest_checkpoint(os.path.join(checkpoint_root, name))
                   if resume else None for name in names]
    # each search's (batch, row), or None for a supernet search and for one
    # whose checkpoint does not load (its own search raises the error)
    slots: List[Optional[Tuple[SearchBatch, int]]] = [None] * len(configs)
    # the start states live in float64 whatever the caller's default dtype
    with nn.dtype_scope("float64"):
        for share in fleet.shares(len(configs)):
            groups: Dict[Tuple, List[int]] = {}
            states: Dict[int, _SearchState] = {}
            for index in share:
                if configs[index].mode != "surrogate":
                    continue
                try:
                    states[index] = engines[index]._start(resume_from[index])
                except CheckpointError:
                    continue
                key = (_config_key(configs[index], shared=True),
                       states[index].start_epoch, states[index].steps)
                groups.setdefault(key, []).append(index)
            for rows in groups.values():
                batch = SearchBatch([engines[i] for i in rows],
                                    [states[i] for i in rows])
                for row, index in enumerate(rows):
                    slots[index] = batch, row

    def task(engine: LightNAS, name: str, path: Optional[str],
             slot: Optional[Tuple[SearchBatch, int]]) -> FleetTask:
        def fn(ctx):
            # a stacked search starts from the state its batch loaded
            return engine.search(checkpoint_dir=ctx.checkpoint_dir,
                                 checkpoint_every=checkpoint_every,
                                 resume_from=None if slot else path,
                                 journal=ctx.journal, _batch=slot)

        config = engine.config
        return FleetTask(name=name, fn=fn,
                         header={"target": config.target, "seed": config.seed,
                                 "metric": config.metric_name})

    return fleet.run([task(*args) for args in
                      zip(engines, names, resume_from, slots)])
