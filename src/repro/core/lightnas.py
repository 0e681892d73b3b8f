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
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..predictor.dataset import collect_latency_dataset
from ..predictor.mlp import MLPPredictor
from ..hardware.latency import LatencyModel
from ..proxy.accuracy_model import AccuracyOracle
from ..proxy.dataset import Batch, SyntheticTask
from ..proxy.supernet import SuperNet
from ..runtime.checkpoint import (
    CheckpointError,
    CheckpointManager,
    fingerprint_of,
    load_checkpoint,
    resolve_checkpoint,
    restore_rng,
    rng_state_json,
)
from ..runtime.telemetry import NullJournal, PhaseTimers, RunJournal
from ..search_space.macro import MacroConfig
from ..search_space.space import Architecture, SearchSpace
from .gumbel import GumbelSampler, TemperatureSchedule
from .lambda_opt import LagrangeMultiplier
from .objective import ConstrainedObjective
from .result import SearchResult, SearchTrajectory

__all__ = ["LightNASConfig", "LightNAS", "METRIC_ALIASES", "CANONICAL_METRICS"]

#: canonical unit-suffixed metric names used across predictors and results
CANONICAL_METRICS = ("latency_ms", "energy_mj", "macs_m")

#: accepted shorthand → canonical name (normalised in one place:
#: :meth:`LightNASConfig.__post_init__`)
METRIC_ALIASES = {"latency": "latency_ms", "energy": "energy_mj",
                  "macs": "macs_m"}


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

    alpha_lr: float = 1e-3
    alpha_weight_decay: float = 1e-3
    w_lr: float = 0.1
    w_momentum: float = 0.9
    w_weight_decay: float = 3e-5
    lambda_lr: float = 5e-4
    lambda_initial: float = 0.0
    #: augmented-Lagrangian damping weight (0 disables; see objective.py)
    penalty_mu: float = 1.0

    tau_initial: float = 5.0
    tau_floor: float = 0.1

    seed: int = 0

    #: nn compute dtype — "float64" (default) is bit-identical to the
    #: historical engine; "float32" halves memory traffic for supernet runs
    compute_dtype: str = "float64"
    #: when True, per-op wall time is profiled and journalled every epoch
    profile_ops: bool = False
    #: compile train/α/warmup steps into trace-once/replay-many plans
    #: (a surrogate search compiles one α-step plan; bit-identical to the
    #: eager engine; ``False`` or the ``repro.nn.plans(False)`` context
    #: runs the same step functions eagerly)
    use_plans: bool = True
    #: fuse replayed kernels (conv/BN folding, elementwise chain packing,
    #: stacked multi-path 1×1 convs) and compile whole epochs into chained
    #: replay schedules.  Every fused site is accepted only after a
    #: build-time bitwise probe, so results are identical either way; set
    #: ``False`` (or pass ``--no-fusion`` on the CLI, or wrap in
    #: ``repro.nn.fusion(False)``) to replay unfused plans when isolating a
    #: suspected fusion issue.  Excluded from the config fingerprint:
    #: checkpoints are interchangeable across this flag.
    use_fusion: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("surrogate", "supernet"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.compute_dtype not in ("float64", "float32"):
            raise ValueError(
                f"unknown compute_dtype {self.compute_dtype!r}; expected "
                "'float64' or 'float32'"
            )
        if self.target <= 0:
            raise ValueError("constraint target must be positive")
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


class _EpochPlan:
    """A whole epoch compiled as a chain of step-plan replays.

    Once every step of an epoch replays its compiled :class:`~repro.nn.plan.
    StepPlan`, the epoch itself becomes a flat schedule: per step, one plan
    replay plus the pre-bound in-place optimizer updates for exactly the
    leaves that plan produces gradients for.  Replaying the chain skips the
    per-step plan-cache probe, ``zero_grad`` sweeps (leaf slots are
    overwritten by each replay's gradient assignment), and optimizer
    ``grad is None`` scans.  Instances live in the owning
    :class:`~repro.nn.plan.StepProgram`'s epoch-plan LRU, so they share its
    capacity budget and journal counters.

    ``sels`` bakes the per-step sampled paths: w-epochs key on them (a new
    selection sequence is simply a different epoch plan), while α-epochs
    verify them step-by-step against the live selection signature and
    invalidate gracefully on drift.  A chained step plan that was evicted
    from the LRU (``plan.released``) poisons the whole epoch plan — its
    arena buffers may have been reused — so holders must check
    :meth:`stale` before replaying.
    """

    __slots__ = ("kind", "step_plans", "updates", "sels")

    def __init__(self, kind: str, step_plans: list, updates: list,
                 sels: tuple) -> None:
        self.kind = kind
        self.step_plans = step_plans
        self.updates = updates
        self.sels = sels

    def stale(self) -> bool:
        """True when any chained step plan was evicted (never replay then)."""
        return any(plan.released for plan in self.step_plans)


class LightNAS:
    """The one-time hardware-constrained differentiable search.

    Parameters
    ----------
    config:
        Run configuration.
    predictor:
        A fitted metric predictor.  If omitted, a latency predictor is
        trained on a fresh simulated measurement campaign (1,500 samples —
        enough for search-grade accuracy; the benchmarks use the full
        10,000-sample protocol).
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
        # one plan cache covers all step kinds; keys are prefixed with the
        # step family ("w" / "alpha" / "warmup") plus, for supernet steps,
        # the sampled path and batch shape, so Gumbel samples re-hit their
        # compiled plan
        self.programs = nn.StepProgram("lightnas")

    def _default_predictor(self) -> MLPPredictor:
        latency_model = LatencyModel(self.space)
        campaign_rng = np.random.default_rng(self.config.seed + 101)
        data = collect_latency_dataset(latency_model, 1500, campaign_rng)
        train, valid = data.split(0.8, campaign_rng)
        predictor = MLPPredictor(self.space, seed=self.config.seed)
        predictor.fit(train, epochs=120, batch_size=256, lr=3e-3, weight_decay=0.0)
        return predictor

    # ------------------------------------------------------------------
    def _fingerprint(self) -> str:
        """Hash of everything that determines the search dynamics."""
        cfg = self.config
        parts = [
            "lightnas", cfg.mode, cfg.target, cfg.metric_name, cfg.epochs,
            cfg.steps_per_epoch, cfg.warmup_epochs, cfg.batch_size,
            cfg.alpha_lr, cfg.alpha_weight_decay, cfg.w_lr, cfg.w_momentum,
            cfg.w_weight_decay, cfg.lambda_lr, cfg.lambda_initial,
            cfg.penalty_mu, cfg.tau_initial, cfg.tau_floor, cfg.seed,
            self.space.num_layers, self.space.num_operators,
            repr(self.space.macro),
        ]
        # appended only when non-default so historical float64 checkpoints
        # keep their fingerprints
        if cfg.compute_dtype != "float64":
            parts.append(cfg.compute_dtype)
        return fingerprint_of(*parts)

    def _capture_state(self, epoch: int, steps: int, alpha: nn.Parameter,
                       alpha_opt: nn.Optimizer, lam: LagrangeMultiplier,
                       trajectory: SearchTrajectory,
                       w_opt: Optional[nn.Optimizer]) -> Tuple[Dict, Dict]:
        """Snapshot the full search state at the *end* of ``epoch``."""
        meta = {
            "kind": "lightnas",
            "fingerprint": self._fingerprint(),
            "next_epoch": epoch + 1,
            "steps": steps,
            "rng_state": rng_state_json(self.rng),
        }
        arrays: Dict[str, np.ndarray] = {
            "alpha": alpha.data.copy(),
            "lambda": lam.param.data.copy(),
            "lambda_history": np.array(lam.history, dtype=np.float64),
        }
        for key, value in alpha_opt.state_arrays().items():
            arrays[f"alpha_opt.{key}"] = value
        arrays.update(trajectory.as_arrays())
        if self.config.mode == "supernet":
            meta["task_rng_state"] = rng_state_json(self.task._batch_rng)
            for key, value in self.supernet.state_dict().items():
                arrays[f"net.{key}"] = value
            for key, value in w_opt.state_arrays().items():
                arrays[f"w_opt.{key}"] = value
        return meta, arrays

    def _restore_state(self, path: str, alpha: nn.Parameter,
                       alpha_opt: nn.Optimizer, lam: LagrangeMultiplier,
                       w_opt: Optional[nn.Optimizer]
                       ) -> Tuple[int, int, SearchTrajectory]:
        """Restore a checkpoint; returns (start_epoch, steps, trajectory)."""
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
            np.copyto(alpha.data, arrays["alpha"])
            alpha_opt.load_state_arrays({
                key[len("alpha_opt."):]: value
                for key, value in arrays.items() if key.startswith("alpha_opt.")
            })
            np.copyto(lam.param.data, arrays["lambda"])
            lam.history = [float(x) for x in arrays["lambda_history"]]
            restore_rng(self.rng, meta["rng_state"])
            if self.config.mode == "supernet":
                self.supernet.load_state_dict({
                    key[len("net."):]: value
                    for key, value in arrays.items() if key.startswith("net.")
                })
                w_opt.load_state_arrays({
                    key[len("w_opt."):]: value
                    for key, value in arrays.items() if key.startswith("w_opt.")
                })
                restore_rng(self.task._batch_rng, meta["task_rng_state"])
            trajectory = SearchTrajectory.from_arrays(arrays)
            return int(meta["next_epoch"]), int(meta["steps"]), trajectory
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
        cfg = self.config
        journal = journal if journal is not None else NullJournal()
        timers = PhaseTimers()
        run_start = time.perf_counter()
        alpha = nn.Parameter(self.space.uniform_alpha(), name="alpha")
        alpha_opt = nn.Adam([alpha], lr=cfg.alpha_lr,
                            weight_decay=cfg.alpha_weight_decay)
        alpha_schedule = nn.CosineSchedule(cfg.alpha_lr, cfg.epochs,
                                           final_lr=cfg.alpha_lr * 0.1)
        lam = LagrangeMultiplier(lr=cfg.lambda_lr, initial=cfg.lambda_initial)
        schedule = TemperatureSchedule(cfg.tau_initial, cfg.tau_floor, cfg.epochs)
        sampler = GumbelSampler(schedule, self.rng)
        trajectory = SearchTrajectory()

        w_opt = None
        w_schedule = None
        if cfg.mode == "supernet":
            w_opt = nn.SGD(self.supernet.parameters(), lr=cfg.w_lr,
                           momentum=cfg.w_momentum, weight_decay=cfg.w_weight_decay)
            w_schedule = nn.CosineSchedule(cfg.w_lr, cfg.epochs)

        steps = 0
        start_epoch = 0
        if resume_from is not None:
            start_epoch, steps, trajectory = self._restore_state(
                resolve_checkpoint(resume_from), alpha, alpha_opt, lam, w_opt
            )
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
            start_epoch=start_epoch,
            fingerprint=self._fingerprint(),
        )

        for epoch in range(start_epoch, cfg.epochs):
            epoch_start = time.perf_counter()
            alpha_schedule.apply(alpha_opt, epoch)
            epoch_scope = (nn.profiler.profile() if cfg.profile_ops
                           else nullcontext(None))
            with epoch_scope as op_prof:
                if cfg.mode == "supernet":
                    w_schedule.apply(w_opt, epoch)
                    with timers.phase("train_weights"):
                        self._train_weights_epoch(sampler, alpha, w_opt, epoch)
                    if epoch >= cfg.warmup_epochs:
                        with timers.phase("update_alpha"):
                            epoch_steps, mean_loss = self._update_alpha_epoch(
                                sampler, alpha, alpha_opt, lam, epoch)
                        steps += epoch_steps
                    else:
                        with timers.phase("warmup_eval"):
                            mean_loss = self._warmup_valid_loss(
                                sampler, alpha, epoch)
                else:
                    with timers.phase("update_alpha"):
                        epoch_steps, mean_loss = self._update_alpha_epoch(
                            sampler, alpha, alpha_opt, lam, epoch)
                    steps += epoch_steps

                with timers.phase("derive"):
                    arch = sampler.derive_architecture(alpha)
                    predicted = self.predictor.predict_arch(arch)
            trajectory.record(epoch, predicted, lam.value, mean_loss,
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
            if cfg.use_plans:
                epoch_fields["plan_stats"] = self.programs.stats()
            journal.epoch(**epoch_fields)
            if verbose:
                print(
                    f"[lightnas] epoch {epoch:3d} metric {predicted:7.3f} "
                    f"(target {cfg.target}) λ {lam.value:+.4f}"
                )
            if manager is not None and manager.due(epoch):
                with timers.phase("checkpoint"):
                    meta, arrays = self._capture_state(
                        epoch, steps, alpha, alpha_opt, lam, trajectory, w_opt)
                    path = manager.save(epoch, meta, arrays)
                journal.event("checkpoint", epoch=epoch, path=path)

        arch = sampler.derive_architecture(alpha)
        result = SearchResult(
            architecture=arch,
            predicted_metric=self.predictor.predict_arch(arch),
            target=cfg.target,
            final_lambda=lam.value,
            trajectory=trajectory,
            search_paths_per_step=self.space.num_layers,
            num_search_steps=steps,
            metric_name=cfg.metric_name,
        )
        end_fields = dict(
            final_predicted_metric=round(result.predicted_metric, 6),
            final_lambda=round(result.final_lambda, 6),
            constraint_error=round(result.constraint_error, 6),
            architecture=list(arch.op_indices),
            num_search_steps=steps,
            wall_time_s=round(time.perf_counter() - run_start, 6),
            phase_timers=timers.as_dict(),
        )
        if cfg.use_plans:
            end_fields["plan_stats"] = self.programs.stats()
        journal.run_end(**end_fields)
        return result

    # ------------------------------------------------------------------
    def _train_weights_epoch(self, sampler: GumbelSampler, alpha: nn.Parameter,
                             w_opt: nn.Optimizer, epoch: int) -> None:
        """One epoch of supernet weight training on the train fold."""
        cfg = self.config
        self.supernet.train(True)
        if not cfg.use_plans:
            with nn.dtype_scope(cfg.compute_dtype):
                for _ in range(cfg.steps_per_epoch):
                    batch = self.task.sample_batch(self.task.train,
                                                   cfg.batch_size)
                    with nn.no_grad():
                        _, gates_const = sampler.sample_gates(
                            alpha.detach(), epoch)
                    logits = self.supernet.forward_single_path(
                        nn.Tensor(batch.images), nn.Tensor(gates_const.data)
                    )
                    loss = F.cross_entropy(logits, batch.labels)
                    w_opt.zero_grad()
                    loss.backward()
                    w_opt.step()
            return
        num_classes = self.space.macro.num_classes
        with nn.dtype_scope(cfg.compute_dtype), \
                nn.plan.fusion(cfg.use_fusion):
            # α is frozen for the whole w-epoch, so the epoch's Gumbel
            # draws can be hoisted upfront (same RNG calls, same order —
            # batches come from the task's independent stream) and the
            # selection sequence becomes the epoch identity: once every
            # step of a sequence has a compiled plan, the epoch itself
            # replays as one flat chain of plan replays + in-place
            # optimizer updates, skipping per-step cache probes,
            # zero_grad sweeps, and grad-None scans.
            gates_list, sels = sampler.predraw_epoch(
                alpha, epoch, cfg.steps_per_epoch)
            epoch_key = ("w-epoch", tuple(sels), cfg.batch_size)
            ep = self.programs.epoch_plan(epoch_key)
            if ep is not None and ep.stale():
                self.programs.invalidate_epoch_plan(epoch_key)
                ep = None
            if ep is not None:
                prof = nn.profiler.active_profile()
                for plan, updates in zip(ep.step_plans, ep.updates):
                    batch = self.task.sample_batch(self.task.train,
                                                   cfg.batch_size)
                    targets = F.one_hot(batch.labels, num_classes)
                    plan.replay({"images": batch.images,
                                 "targets": targets}, prof)
                    self.programs.replays += 1
                    w_opt.begin_step()
                    for update in updates:
                        update()
                self.programs.epoch_plan_hits += 1
                return
            chained = []
            for sel, gates_arr in zip(sels, gates_list):
                batch = self.task.sample_batch(self.task.train,
                                               cfg.batch_size)
                # hard gates are exactly one-hot, so the sampled path is
                # the whole story: steps with the same selections replay
                # the same compiled plan regardless of epoch / temperature
                targets = F.one_hot(batch.labels, num_classes)

                def fn(ts, gates_arr=gates_arr):
                    logits = self.supernet.forward_single_path(
                        ts["images"], nn.Tensor(gates_arr))
                    return {"loss": F.cross_entropy(
                        logits, targets=ts["targets"])}

                w_opt.zero_grad()
                self.programs.run(
                    ("w", sel, batch.images.shape),
                    {"images": batch.images, "targets": targets}, fn)
                w_opt.step()
                if self.programs.last_event == "replay":
                    chained.append(self.programs.last_plan)
            if len(chained) == cfg.steps_per_epoch:
                # every step replayed a compiled plan → the epoch is fully
                # compiled; bind each plan's gradient leaves to their
                # in-place SGD updates and cache the chain
                updates = [
                    w_opt.bind_param_updates(
                        [t for t, _ in plan._leaf_assigns])
                    for plan in chained
                ]
                self.programs.store_epoch_plan(
                    epoch_key,
                    _EpochPlan("w", chained, updates, tuple(sels)))

    def _update_alpha_epoch(self, sampler: GumbelSampler, alpha: nn.Parameter,
                            alpha_opt: nn.Optimizer, lam: LagrangeMultiplier,
                            epoch: int) -> Tuple[int, float]:
        """One epoch of α descent + λ ascent on the Eq. (10) objective.

        Returns ``(steps, mean_valid_loss)`` — the mean of the epoch's
        actual validation losses, which is what the trajectory records
        (previously the recorded series was a stale constant 0.0).
        """
        cfg = self.config
        supernet = cfg.mode == "supernet"
        steps = 0
        loss_sum = 0.0

        # The one α-step, run by ``self.programs`` as an eager step, a
        # trace, or a replay (``use_plans=False`` → always eager).  The
        # per-step randomness (Gumbel noise, validation batch) and the
        # annealed 1/τ are plan *inputs*.  The latency term uses the
        # *deterministic* binarisation of α: Eq. (4) defines the
        # architecture encoded by α as the per-layer argmax, so LAT(α) is
        # the latency of that architecture, not of the Gumbel sample (with
        # the sampled gates, λ's equilibrium pins the *expected* sampled
        # latency to T while the derived argmax systematically
        # undershoots).  Its STE recomputes the argmax live on replay.
        def fn(ts):
            _, gates = sampler.sample_gates(
                alpha, epoch, noise=ts["noise"], inv_tau=ts["inv_tau"])
            if supernet:
                logits = self.supernet.forward_single_path(ts["images"], gates)
                valid_loss = F.cross_entropy(logits, targets=ts["targets"])
            else:
                valid_loss = self.oracle.differentiable_loss(gates)
            _, det_gates = sampler.sample_gates(
                alpha, epoch, deterministic=True, inv_tau=ts["inv_tau"])
            loss, _ = self.objective.loss(valid_loss, det_gates,
                                          lam.as_tensor())
            return {"loss": loss, "valid_loss": valid_loss}

        # Surrogate steps trace the same fixed L×K gate program whatever
        # path is sampled, so one constant key replays on every step.  A
        # supernet step's ops follow the sampled single path, so its key
        # carries the bit-exact selection signature (a replay can never
        # follow a stale selection) and the batch shape.
        #
        # Supernet α-epochs additionally chain into an *optimistic* epoch
        # plan: α moves every step, so the selection sequence cannot be
        # predrawn; the chain bakes the sequence observed when it was
        # assembled and each step verifies the live signature against it —
        # a mismatch invalidates the chain gracefully (counted, never
        # wrong) and the rest of the epoch runs per-step.
        epoch_key = ("alpha-epoch", cfg.batch_size)
        ep = None
        if supernet and cfg.use_plans:
            ep = self.programs.epoch_plan(epoch_key)
            if ep is not None and ep.stale():
                self.programs.invalidate_epoch_plan(epoch_key)
                ep = None
        prof = nn.profiler.active_profile()
        chained = []
        with (nullcontext() if cfg.use_plans else nn.plans(False)), \
                nn.plan.fusion(cfg.use_fusion), \
                (nn.dtype_scope(cfg.compute_dtype) if supernet
                 else nullcontext()):
            for i in range(cfg.steps_per_epoch):
                noise = sampler.draw_noise(alpha.shape)
                inputs = {"noise": noise,
                          "inv_tau": 1.0 / sampler.schedule.at(epoch)}
                key = ("alpha",)
                if supernet:
                    sel = sampler.selection_signature(alpha.data, epoch, noise)
                    if ep is not None and sel != ep.sels[i]:
                        self.programs.invalidate_epoch_plan(epoch_key)
                        ep = None
                    self.supernet.train(True)
                    batch = self.task.sample_batch(self.task.valid,
                                                   cfg.batch_size)
                    inputs["images"] = batch.images
                    inputs["targets"] = F.one_hot(
                        batch.labels, self.space.macro.num_classes)
                    key = ("alpha", sel, batch.images.shape)
                if ep is not None:
                    out = ep.step_plans[i].replay(inputs, prof)
                    self.programs.replays += 1
                    alpha_opt.begin_step()
                    for update in ep.updates[i]:
                        update()
                else:
                    alpha_opt.zero_grad()
                    lam.param.zero_grad()
                    if supernet:
                        # the α-step backward reaches the supernet weights;
                        # a trace's leaf slots want a clean start
                        self.supernet.zero_grad()
                    out = self.programs.run(key, inputs, fn)
                    if supernet and self.programs.last_event == "replay":
                        chained.append((sel, self.programs.last_plan))
                    alpha_opt.step()
                loss_sum += float(out["valid_loss"])
                lam.ascend()
                steps += 1
        if ep is not None:
            self.programs.epoch_plan_hits += 1
        elif supernet and len(chained) == cfg.steps_per_epoch:
            # every step replayed and the chain spans the whole epoch (an
            # epoch that started on a — since invalidated — chain cannot
            # reassemble this epoch: its early steps left no plan record)
            alpha_updates = alpha_opt.bind_param_updates([alpha])
            self.programs.store_epoch_plan(
                epoch_key,
                _EpochPlan("alpha", [plan for _, plan in chained],
                           [alpha_updates] * len(chained),
                           tuple(s for s, _ in chained)))
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
            if cfg.use_plans:
                # forward-only plan (grad=False): BatchNorm eval statistics
                # enter through standing views + replay effects, so the
                # replayed eval tracks the training running stats exactly
                gates_arr = gates.data
                sel = tuple(int(k) for k in np.argmax(gates_arr, axis=1))
                with nn.dtype_scope(cfg.compute_dtype), \
                        nn.plan.fusion(cfg.use_fusion):
                    targets = F.one_hot(batch.labels,
                                        self.space.macro.num_classes)

                    def fn(ts, gates_arr=gates_arr):
                        with nn.no_grad():
                            logits = self.supernet.forward_single_path(
                                ts["images"], nn.Tensor(gates_arr))
                            return {"loss": F.cross_entropy(
                                logits, targets=ts["targets"])}

                    out = self.programs.run(
                        ("warmup", sel, batch.images.shape),
                        {"images": batch.images, "targets": targets}, fn,
                        grad=False)
                return float(out["loss"])
            # no_grad + tape-free ops: this eval allocates zero closures
            with nn.dtype_scope(cfg.compute_dtype), nn.no_grad():
                logits = self.supernet.forward_single_path(
                    nn.Tensor(batch.images), nn.Tensor(gates.data))
                loss = F.cross_entropy(logits, batch.labels)
        finally:
            self.supernet.train(was_training)
        return float(loss.data)
