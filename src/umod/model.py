"""The OD flow forecaster: embeddings, temporal attention, spatial head.

The network embeds each entity's feature vector per history step, appends a
free learnable embedding shared across the batch, runs single-head scaled
dot-product self-attention along the time axis of each entity independently,
mixes information across entities with a residual two-layer MLP, and maps
the flattened per-entity history to the forecast horizon with one linear
head.

Entities default to origin stations (the feature vector is the N-length
destination row of the OD matrix); an alternative mode forecasts the top-K
busiest OD pairs as scalar series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import diffmath as dm
from .data import SPLIT, ODSeries, ConfigurationError, read_container, write_container

CHECKPOINT_MAGIC = b"UMODCKPT"
CHECKPOINT_VERSION = 2

STATION_ROWS = "station_rows"
TOP_K_PAIRS = "top_k_pairs"


class CheckpointError(ValueError):
    """Raised when a checkpoint cannot be read or does not match the config."""


@dataclass
class ModelConfig:
    n_entities: int
    history: int = 2
    horizon: int = 2
    d_input: int = 24
    d_adaptive: int = 80
    d_output: int | None = None  # defaults to feature_dim
    spatial_hidden: int | None = None  # defaults to n_entities
    use_input_embedding: bool = True
    use_adaptive_embedding: bool = True
    entity_mode: str = STATION_ROWS
    top_k: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.entity_mode not in (STATION_ROWS, TOP_K_PAIRS):
            raise ConfigurationError(f"unknown entity_mode {self.entity_mode!r}")
        if self.entity_mode == TOP_K_PAIRS and not (
                isinstance(self.top_k, int) and self.top_k >= 1):
            raise ConfigurationError(f"entity_mode {TOP_K_PAIRS} needs an integer "
                                     f"top_k >= 1, got {self.top_k!r}")
        if self.d_output is None:
            self.d_output = self.feature_dim
        if self.spatial_hidden is None:
            self.spatial_hidden = self.n_entities
        if not (self.use_input_embedding or self.use_adaptive_embedding):
            raise ConfigurationError("at least one embedding must be enabled")
        for name in ("n_entities", "history", "horizon", "d_input", "d_adaptive",
                     "d_output", "spatial_hidden"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")

    @property
    def feature_dim(self) -> int:
        return self.n_entities if self.entity_mode == STATION_ROWS else 1

    @property
    def d_hidden(self) -> int:
        return ((self.d_input if self.use_input_embedding else 0)
                + (self.d_adaptive if self.use_adaptive_embedding else 0))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


class ModelParams:
    """All learnable parameters, keyed by name, in fixed creation order."""

    def __init__(self, params: list[dm.Parameter]):
        self._params = list(params)
        self._by_name = {p.name: p for p in self._params}
        if len(self._by_name) != len(self._params):
            raise ValueError("duplicate parameter names")

    def __getitem__(self, name: str) -> dm.Parameter:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def all(self) -> list[dm.Parameter]:
        return self._params

    def zero_grad(self):
        for p in self._params:
            p.zero_grad()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self._params}

    def restore(self, snap: dict[str, np.ndarray]):
        for p in self._params:
            p.data[...] = snap[p.name]


def param_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The one parameter layout: ``(name, shape)`` for each parameter, in creation order."""
    H, E, d_h = config.history, config.n_entities, config.d_hidden
    sh, head_in = config.spatial_hidden, H * d_h
    head_out = config.horizon * config.d_output
    shapes = []
    if config.use_input_embedding:
        shapes += [("W_in", (config.feature_dim, config.d_input)), ("b_in", (config.d_input,))]
    if config.use_adaptive_embedding:
        shapes.append(("E_a", (H, E, config.d_adaptive)))  # one row per (step, entity)
    shapes += [(name, (d_h, d_h)) for name in ("W_Q", "W_K", "W_V")]
    return shapes + [("W_s1", (E, sh)), ("b_s1", (sh,)), ("W_s2", (sh, E)), ("b_s2", (E,)),
                     ("W_out", (head_in, head_out)), ("b_out", (head_out,))]


def xavier_init(shapes, seed: int) -> ModelParams:
    """Xavier-uniform weights with their fans on the last two axes, zero 1-d biases.

    Draws in list order from a generator seeded by ``seed``, so the values are
    fully determined by the layout and the seed.
    """
    rng = np.random.default_rng(seed)
    params = []
    for name, shape in shapes:
        if len(shape) == 1:
            value = np.zeros(shape)
        else:
            bound = math.sqrt(6.0 / (shape[-2] + shape[-1]))
            value = rng.uniform(-bound, bound, size=shape)
        params.append(dm.Parameter(name, value))
    return ModelParams(params)


def init_params(config: ModelConfig) -> ModelParams:
    """The parameters of ``param_shapes(config)``, initialised from config.seed."""
    return xavier_init(param_shapes(config), config.seed)


# ---------------------------------------------------------------------------
# forward pieces


def embed(x: dm.Tensor, params: ModelParams, config: ModelConfig) -> dm.Tensor:
    """Project inputs and/or append the learnable embedding: [B,H,E,d_h]."""
    batch = x.shape[0]
    parts = []
    if config.use_input_embedding:
        if x.shape[-1] != config.feature_dim:
            raise dm.DimensionError(
                f"input features {x.shape} do not match feature_dim {config.feature_dim}"
            )
        parts.append(dm.linear(x, params["W_in"], params["b_in"]))
    if config.use_adaptive_embedding:
        parts.append(dm.expand_leading(params["E_a"], batch))
    out = parts[0]
    for extra in parts[1:]:
        out = dm.concat_last(out, extra)
    return out


def temporal_attention(e_h: dm.Tensor, params: ModelParams,
                       return_weights: bool = False):
    """Self-attention over the time axis, per entity: [B,H,E,d] -> [B,H,E,d]."""
    d_h = e_h.shape[-1]
    if params["W_Q"].shape != (d_h, d_h):
        raise dm.DimensionError(
            f"hidden width {d_h} does not match projection {params['W_Q'].shape}"
        )
    x = dm.transpose(e_h, (0, 2, 1, 3))  # [B,E,H,d]
    q = dm.matmul(x, params["W_Q"])
    k = dm.matmul(x, params["W_K"])
    v = dm.matmul(x, params["W_V"])
    o, a = dm.scaled_dot_attention(q, k, v)  # o [B,E,H,d], a [B,E,H,H]
    o_t = dm.transpose(o, (0, 2, 1, 3))
    if return_weights:
        return o_t, a
    return o_t


def spatial_head(o_t: dm.Tensor, params: ModelParams,
                 config: ModelConfig) -> dm.Tensor:
    """Residual entity mixing plus the per-entity regression head."""
    B = o_t.shape[0]
    H, E, d_h = config.history, config.n_entities, config.d_hidden
    if o_t.shape != (B, H, E, d_h):
        raise dm.DimensionError(
            f"spatial head expects {(B, H, E, d_h)}, got {o_t.shape}"
        )
    # stage 1: two-layer MLP along the entity axis, then residual
    z = dm.transpose(o_t, (0, 1, 3, 2))  # [B,H,d_h,E]
    hidden = dm.relu(dm.linear(z, params["W_s1"], params["b_s1"]))
    mixed = dm.linear(hidden, params["W_s2"], params["b_s2"])
    mixed = dm.transpose(mixed, (0, 1, 3, 2))  # back to [B,H,E,d_h]
    r = dm.add(mixed, o_t)
    # stage 2: flatten each entity's history and regress the horizon
    r = dm.transpose(r, (0, 2, 1, 3))  # [B,E,H,d_h]
    flat = dm.reshape(r, (B, E, H * d_h))
    y = dm.linear(flat, params["W_out"], params["b_out"])  # [B,E,P*d_o]
    y = dm.reshape(y, (B, E, config.horizon, config.d_output))
    return dm.transpose(y, (0, 2, 1, 3))  # [B,P,E,d_o]


def forward(x, params: ModelParams, config: ModelConfig,
            return_activations: bool = False):
    """Full forward pass: [B,H,E,feature_dim] -> [B,P,E,d_output]."""
    x = x if isinstance(x, dm.Tensor) else dm.Tensor(x)
    e_h = embed(x, params, config)
    o_t, a = temporal_attention(e_h, params, return_weights=True)
    y_hat = spatial_head(o_t, params, config)
    if return_activations:
        return y_hat, {"E_h": e_h, "A": a, "O_t": o_t, "x": x}
    return y_hat


# ---------------------------------------------------------------------------
# pair view


def flatten_pairs(series: ODSeries, k: int, train_fraction: float = SPLIT[0]):
    """Pick the K busiest OD pairs by training-split mean flow.

    Ties break toward the lower (origin index, destination index). Returns
    the pair index list and a ``[T, K, 1]`` scalar-feature view of the series.
    """
    n = series.n_stations
    if not (1 <= k <= n * n):
        raise ConfigurationError(f"K={k} out of range for {n}x{n} pairs")
    n_train = max(1, int(series.n_bins * train_fraction))
    means = series.flows[:n_train].mean(axis=0)  # [N, N]
    ranked = sorted(
        ((i, j) for i in range(n) for j in range(n)),
        key=lambda ij: (-means[ij[0], ij[1]], ij[0], ij[1]),
    )
    pairs = ranked[:k]
    rows = np.array([i for i, _ in pairs])
    cols = np.array([j for _, j in pairs])
    view = series.flows[:, rows, cols][:, :, None]  # [T, K, 1]
    return pairs, view


def entity_flows(series: ODSeries, config: ModelConfig) -> np.ndarray:
    """The ``[T, E, F]`` view the model forecasts: station rows or top-K pairs.

    Raises ConfigurationError if ``[E, F]`` is not ``(n_entities, feature_dim)``.
    """
    flows = (flatten_pairs(series, config.top_k)[1] if config.entity_mode == TOP_K_PAIRS
             else series.flows)
    if flows.shape[1:] != (config.n_entities, config.feature_dim):
        raise ConfigurationError(
            f"the series gives [E, F] = {list(flows.shape[1:])}, the model takes "
            f"{[config.n_entities, config.feature_dim]}")
    return flows


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: ModelParams, config: ModelConfig) -> None:
    """``UMODCKPT`` container: config and parameter names/shapes in the header."""
    header = {"version": CHECKPOINT_VERSION, "config": config.to_dict(),
              "params": [[p.name, list(p.shape)] for p in params.all()]}
    write_container(path, CHECKPOINT_MAGIC, header, [p.data for p in params.all()])


def load_checkpoint(path, expected_config: ModelConfig | None = None):
    """Load (params, config); rejects corrupt files, parameters other than
    ``param_shapes`` of the stored config, and config mismatches."""
    header, arrays = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                    lambda h: [shape for _, shape in h["params"]],
                                    CheckpointError)
    try:
        config = ModelConfig.from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: bad checkpoint config: {type(exc).__name__}: {exc}") from exc
    stored = [(name, a.shape) for (name, _), a in zip(header["params"], arrays)]
    expected = param_shapes(config)
    if stored != expected:
        raise CheckpointError(
            f"{path}: parameters {stored} are not the {expected} of its config")
    if expected_config is not None and config.to_dict() != expected_config.to_dict():
        raise CheckpointError(
            "checkpoint config does not match the requested config"
        )
    return ModelParams([dm.Parameter(name, a) for (name, _), a in zip(stored, arrays)]), config
