"""Mini-batch training with Adam, early stopping, and deterministic shuffling.

The loop is fully determined by (model seed, shuffle seed, data): batches
are reshuffled each epoch from a generator seeded by (shuffle_seed, epoch),
validation loss is evaluated after every epoch, and the best parameter
snapshot is returned when patience runs out or the epoch budget ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import diffmath as dm
from . import model as m
from .data import ConfigurationError, WindowSample

MEAN_ABSOLUTE = "mean_absolute"
MEAN_SQUARED = "mean_squared"


@dataclass
class TrainConfig:
    batch_size: int = 16
    lr: float = 0.001
    max_epochs: int = 100
    patience: int = 20
    loss_kind: str = MEAN_ABSOLUTE
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or not self.lr > 0 or self.patience < 1 or self.max_epochs < 1:
            raise ConfigurationError("invalid training configuration")
        if self.loss_kind not in (MEAN_ABSOLUTE, MEAN_SQUARED):
            raise ConfigurationError(f"unknown loss kind {self.loss_kind!r}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    stop_reason: str = ""
    wall_time: float = 0.0


def loss(pred: dm.Tensor, target, kind: str = MEAN_ABSOLUTE) -> dm.Tensor:
    """Differentiable mean |p - t| or mean (p - t)^2 over all elements."""
    target = target if isinstance(target, dm.Tensor) else dm.Tensor(target)
    if pred.shape != target.shape:
        raise dm.DimensionError(
            f"loss: prediction {pred.shape} vs target {target.shape}"
        )
    diff = dm.sub(pred, target)
    if kind == MEAN_ABSOLUTE:
        return dm.mean_all(dm.absolute(diff))
    if kind == MEAN_SQUARED:
        return dm.mean_all(dm.mul(diff, diff))
    raise ValueError(f"unknown loss kind {kind!r}")


def adam_step(params, config: TrainConfig, t: int) -> None:
    """One bias-corrected Adam update, reading gradients off the parameters.

    Aborts before touching any state if a gradient is missing finiteness,
    so a failed step leaves parameters and moments untouched.
    """
    if t < 1:
        raise ValueError("step index must be >= 1")
    grads = []
    for p in params:
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise dm.NumericError(f"non-finite gradient for {p.name}")
        grads.append(g)
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for p, g in zip(params, grads):
        p.first_moment = b1 * p.first_moment + (1.0 - b1) * g
        p.second_moment = b2 * p.second_moment + (1.0 - b2) * g * g
        m_hat = p.first_moment / c1
        v_hat = p.second_moment / c2
        p.data -= config.lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)


def stack_batch(samples: list[WindowSample]):
    x = np.stack([s.x for s in samples])
    y = np.stack([s.y for s in samples])
    return x, y


def train(config: m.ModelConfig, params: m.ModelParams,
          train_samples: list[WindowSample], val_samples: list[WindowSample],
          train_config: TrainConfig,
          epoch_callback=None, forward=None) -> tuple[m.ModelParams, TrainReport]:
    """Run the training loop and return the best-validation parameters.

    ``epoch_callback(record)`` fires after every epoch (used for logging).
    ``forward(x, params, config)`` is the network to fit; it defaults to
    ``model.forward``, and ``config`` is passed to it untouched.
    """
    if not train_samples or not val_samples:
        raise ValueError("need at least one training and one validation sample")
    forward = forward or m.forward
    report = TrainReport()
    best_val = float("inf")
    best_snap = params.snapshot()
    bad_epochs = 0
    step = 0
    t0 = time.perf_counter()
    for epoch in range(1, train_config.max_epochs + 1):
        e0 = time.perf_counter()
        rng = np.random.default_rng([train_config.shuffle_seed, epoch])
        order = rng.permutation(len(train_samples))
        total = 0.0
        count = 0
        for lo in range(0, len(order), train_config.batch_size):
            batch = [train_samples[i] for i in order[lo:lo + train_config.batch_size]]
            x, y = stack_batch(batch)
            params.zero_grad()
            out = forward(x, params, config)
            batch_loss = loss(out, y, train_config.loss_kind)
            if not np.isfinite(batch_loss.data):
                report.stop_reason = "numeric_error"
                raise dm.NumericError(f"non-finite training loss at epoch {epoch}")
            batch_loss.backward()
            step += 1
            adam_step(params.all(), train_config, step)
            total += float(batch_loss.data) * len(batch)
            count += len(batch)
        train_loss = total / count
        val_loss = evaluate_loss(config, params, val_samples, train_config,
                                 forward=forward)
        record = EpochRecord(epoch, train_loss, val_loss,
                             time.perf_counter() - e0)
        report.epochs.append(record)
        if epoch_callback is not None:
            epoch_callback(record)
        if val_loss < best_val:
            best_val = val_loss
            best_snap = params.snapshot()
            report.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= train_config.patience:
                report.stop_reason = "early_stopped"
                break
    if not report.stop_reason:
        report.stop_reason = "max_epochs"
    report.wall_time = time.perf_counter() - t0
    params.restore(best_snap)
    return params, report


def evaluate_loss(config: m.ModelConfig, params: m.ModelParams,
                  samples: list[WindowSample], train_config: TrainConfig,
                  batch_size: int = 64, forward=None) -> float:
    """Forward-only loss over a sample list, under ``diffmath.no_grad()``.

    No tape is recorded and no parameter or gradient changes.
    """
    forward = forward or m.forward
    total = 0.0
    count = 0
    with dm.no_grad():
        for lo in range(0, len(samples), batch_size):
            batch = samples[lo:lo + batch_size]
            x, y = stack_batch(batch)
            out = forward(x, params, config)
            total += float(loss(out, y, train_config.loss_kind).data) * len(batch)
            count += len(batch)
    return total / count


def predict(config: m.ModelConfig, params: m.ModelParams,
            samples: list[WindowSample], batch_size: int = 64,
            forward=None) -> np.ndarray:
    """Stacked forward predictions for a sample list: [S, P, E, d_o].

    Runs under ``diffmath.no_grad()``, so no tape is recorded.
    """
    forward = forward or m.forward
    chunks = []
    with dm.no_grad():
        for lo in range(0, len(samples), batch_size):
            x, _ = stack_batch(samples[lo:lo + batch_size])
            chunks.append(forward(x, params, config).data)
    return np.concatenate(chunks, axis=0)
