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
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    batch_size: int = 16
    lr: float = 0.001
    max_epochs: int = 100
    patience: int = 20
    loss_kind: str = MEAN_ABSOLUTE
    shuffle_seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if not self.lr > 0:
            raise ConfigurationError(f"lr must be > 0, got {self.lr!r}")
        if self.loss_kind not in (MEAN_ABSOLUTE, MEAN_SQUARED):
            raise ConfigurationError(f"unknown loss kind {self.loss_kind!r}")
        if self.shuffle_seed < 0:
            raise ConfigurationError(f"shuffle_seed must be >= 0, got {self.shuffle_seed}")


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


def loss(pred: dm.Tensor, target, kind: str = MEAN_ABSOLUTE) -> dm.Tensor:
    """Differentiable mean |p - t| or mean (p - t)^2 over all elements, as one
    tape node. ``target`` is an array of ``pred``'s shape (``DimensionError``
    otherwise) and gets no gradient."""
    return dm.mean_error(pred, target, kind == MEAN_SQUARED)


def adam_step(params: dict[str, dm.Tensor], moments, config: TrainConfig, t: int) -> None:
    """Adam update number ``t`` (from 1), bias-corrected, reading gradients off the parameters.

    ``moments`` holds one ``(first, second)`` array pair per parameter, in
    ``params`` order, and is updated in place. A gradient that is not finite
    raises before any state changes, naming the parameter by its key.
    """
    for name, p in params.items():
        if not np.isfinite(p.grad).all():
            raise dm.NumericError(f"non-finite gradient for {name}")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for p, (first, second) in zip(params.values(), moments):
        g = p.grad
        # b1 * m + (1 - b1) * g, in place: the same bits without new arrays
        first *= b1
        first += (1.0 - b1) * g
        second *= b2
        second += (1.0 - b2) * g * g
        p.data -= config.lr * (first / c1) / (np.sqrt(second / c2) + ADAM_EPS)


def stack_batch(samples: list[WindowSample]):
    x = np.stack([s.x for s in samples])
    y = np.stack([s.y for s in samples])
    return x, y


def train(config: m.ModelConfig, params: dict[str, dm.Tensor],
          train_samples: list[WindowSample], val_samples: list[WindowSample],
          train_config: TrainConfig,
          epoch_callback=None, forward=None) -> tuple[dict[str, dm.Tensor], TrainReport]:
    """Run the training loop and return the best-validation parameters.

    Both sample lists hold a window, as each split of ``split_and_window`` does.
    The parameters are updated in place, and Adam starts from zero moments on
    every call. ``epoch_callback(record)`` fires after every epoch (used for
    logging); an epoch that raises ``NumericError`` fires it with the failing
    batch's loss and ``val_loss = nan`` before the error propagates, and one
    whose validation loss is not finite fires it and then raises.
    ``forward(x, params, config)`` is the network to fit; it defaults to
    ``model.forward``, and ``config`` is passed to it untouched.
    """
    forward = forward or m.forward
    plist = list(params.values())
    moments = [(np.zeros_like(p.data), np.zeros_like(p.data)) for p in plist]
    report = TrainReport()
    best_val = float("inf")
    step = 0
    for epoch in range(1, train_config.max_epochs + 1):
        e0 = time.perf_counter()
        rng = np.random.default_rng([train_config.shuffle_seed, epoch])
        order = rng.permutation(len(train_samples))
        total = 0.0
        try:
            for lo in range(0, len(order), train_config.batch_size):
                batch = [train_samples[i] for i in order[lo:lo + train_config.batch_size]]
                x, y = stack_batch(batch)
                for p in plist:
                    p.zero_grad()
                # a diverging run overflows here; the checks below and in adam_step
                # turn that into NumericError, so numpy's warnings would only be noise
                with np.errstate(over="ignore", invalid="ignore"):
                    # no name holds the output, and y goes before backward: the
                    # tape keeps only what its adjoints read
                    batch_loss = loss(forward(x, params, config), y, train_config.loss_kind)
                    del y
                    if not np.isfinite(batch_loss.data):
                        raise dm.NumericError(f"non-finite training loss at epoch {epoch}")
                    batch_loss.backward()
                step += 1
                adam_step(params, moments, train_config, step)
                total += float(batch_loss.data) * len(batch)
        except dm.NumericError:
            if epoch_callback is not None:
                epoch_callback(EpochRecord(epoch, float(batch_loss.data), float("nan"),
                                           time.perf_counter() - e0))
            raise
        train_loss = total / len(order)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below, as above
            val_loss = evaluate_loss(config, params, val_samples, train_config,
                                     forward=forward)
        record = EpochRecord(epoch, train_loss, val_loss,
                             time.perf_counter() - e0)
        report.epochs.append(record)
        if epoch_callback is not None:
            epoch_callback(record)
        if not np.isfinite(val_loss):
            raise dm.NumericError(f"non-finite validation loss at epoch {epoch}")
        if val_loss < best_val:
            best_val = val_loss
            best_snap = [p.data.copy() for p in plist]
            report.best_epoch = epoch
        elif epoch - report.best_epoch >= train_config.patience:
            report.stop_reason = "early_stopped"
            break
    else:
        report.stop_reason = "max_epochs"
    for p, best in zip(plist, best_snap):
        p.data[...] = best
    return params, report


def _forward_only(config: m.ModelConfig, params: dict[str, dm.Tensor],
                  samples: list[WindowSample], batch_size: int, forward):
    """Each ``batch_size`` chunk of ``samples`` and ``forward``'s output on it,
    under ``diffmath.no_grad()``, as is the caller's work on each: no tape."""
    forward = forward or m.forward
    with dm.no_grad():
        for lo in range(0, len(samples), batch_size):
            batch = samples[lo:lo + batch_size]
            yield batch, forward(np.stack([s.x for s in batch]), params, config)


def evaluate_loss(config: m.ModelConfig, params: dict[str, dm.Tensor],
                  samples: list[WindowSample], train_config: TrainConfig,
                  batch_size: int = 64, forward=None) -> float:
    """Forward-only loss over a sample list; no parameter or gradient changes."""
    total = 0.0
    for batch, out in _forward_only(config, params, samples, batch_size, forward):
        total += float(loss(out, np.stack([s.y for s in batch]),
                            train_config.loss_kind).data) * len(batch)
    return total / len(samples)


def predict(config: m.ModelConfig, params: dict[str, dm.Tensor],
            samples: list[WindowSample], batch_size: int = 64,
            forward=None) -> np.ndarray:
    """Stacked forward-only predictions for a sample list: [S, P, E, d_o]."""
    return np.concatenate([out.data for _, out in _forward_only(
        config, params, samples, batch_size, forward)], axis=0)
