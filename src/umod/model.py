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
from .data import ConfigurationError, check_float64_shape, read_container, write_container

CHECKPOINT_MAGIC = b"UMODCKPT"
CHECKPOINT_VERSION = 3

STATION_ROWS = "station_rows"
TOP_K_PAIRS = "top_k_pairs"


class CheckpointError(ValueError):
    """Raised when a checkpoint's parameters are not its config's, or it cannot be read."""


@dataclass
class ModelConfig:
    n_entities: int
    history: int = 2
    horizon: int = 2
    d_input: int = 24
    d_adaptive: int = 80
    spatial_hidden: int | None = None  # defaults to n_entities
    use_input_embedding: bool = True
    use_adaptive_embedding: bool = True
    entity_mode: str = STATION_ROWS  # top_k_pairs: K = n_entities
    seed: int = 0

    def __post_init__(self):
        if self.entity_mode not in (STATION_ROWS, TOP_K_PAIRS):
            raise ConfigurationError(f"unknown entity_mode {self.entity_mode!r}")
        if self.spatial_hidden is None:
            self.spatial_hidden = self.n_entities
        if not (self.use_input_embedding or self.use_adaptive_embedding):
            raise ConfigurationError("at least one embedding must be enabled")
        for name in ("n_entities", "history", "horizon", "d_input", "d_adaptive", "spatial_hidden"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")
        if self.seed < 0:
            raise ConfigurationError(f"model seed must be >= 0, got {self.seed}")
        for name, shape in param_shapes(self):
            check_float64_shape(shape, f"the entries of {name} {list(shape)}")

    @property
    def feature_dim(self) -> int:
        return self.n_entities if self.entity_mode == STATION_ROWS else 1

    @property
    def d_hidden(self) -> int:
        return ((self.d_input if self.use_input_embedding else 0)
                + (self.d_adaptive if self.use_adaptive_embedding else 0))


def param_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The one parameter layout: ``(name, shape)`` for each parameter, in creation order."""
    H, E, d_h = config.history, config.n_entities, config.d_hidden
    sh, head_in = config.spatial_hidden, H * d_h
    head_out = config.horizon * config.feature_dim
    shapes = []
    if config.use_input_embedding:
        shapes += [("W_in", (config.feature_dim, config.d_input)), ("b_in", (config.d_input,))]
    if config.use_adaptive_embedding:
        shapes.append(("E_a", (H, E, config.d_adaptive)))  # one row per (step, entity)
    shapes += [(name, (d_h, d_h)) for name in ("W_Q", "W_K", "W_V")]
    return shapes + [("W_s1", (E, sh)), ("b_s1", (sh,)), ("W_s2", (sh, E)), ("b_s2", (E,)),
                     ("W_out", (head_in, head_out)), ("b_out", (head_out,))]


def xavier_init(shapes, seed: int) -> dict[str, dm.Tensor]:
    """Xavier-uniform weights with their fans on the last two axes, zero 1-d biases.

    Returns name -> leaf Tensor in ``shapes`` order. Draws in that order from a
    generator seeded by ``seed``, so the values are fully determined by the
    layout and the seed.
    """
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in shapes:
        if len(shape) == 1:
            value = np.zeros(shape)
        else:
            bound = math.sqrt(6.0 / (shape[-2] + shape[-1]))
            value = rng.uniform(-bound, bound, size=shape)
        params[name] = dm.Tensor(value)
    return params


def init_params(config: ModelConfig) -> dict[str, dm.Tensor]:
    """The parameters of ``param_shapes(config)``, initialised from config.seed."""
    return xavier_init(param_shapes(config), config.seed)


# ---------------------------------------------------------------------------
# forward pieces


def embed(x, params: dict[str, dm.Tensor], config: ModelConfig) -> dm.Tensor:
    """Project inputs and/or append the learnable embedding: [B,H,E,d_h]."""
    parts = []
    if config.use_input_embedding:
        parts.append(dm.linear(x, params["W_in"], params["b_in"]))
    if config.use_adaptive_embedding:
        parts.append(dm.expand_leading(params["E_a"], x.shape[0]))
    return dm.concat_last(*parts) if len(parts) == 2 else parts[0]


def temporal_attention(e_h: dm.Tensor, params: dict[str, dm.Tensor]):
    """Self-attention over the time axis, per entity.

    Returns the output [B,H,E,d] and the attention weights [B,E,H,H].
    """
    x = dm.transpose(e_h, (0, 2, 1, 3))  # [B,E,H,d]
    q, k, v = dm.qkv_projection(x, params["W_Q"], params["W_K"], params["W_V"])
    o, a = dm.scaled_dot_attention(q, k, v)  # o [B,E,H,d], a [B,E,H,H]
    return dm.transpose(o, (0, 2, 1, 3)), a


def spatial_head(o_t: dm.Tensor, params: dict[str, dm.Tensor],
                 config: ModelConfig) -> dm.Tensor:
    """Residual entity mixing plus the per-entity regression head."""
    B, H, E, d_h = o_t.shape
    # stage 1: two-layer MLP along the entity axis, then residual
    z = dm.transpose(o_t, (0, 1, 3, 2))  # [B,H,d_h,E]
    hidden = dm.relu(dm.linear(z, params["W_s1"], params["b_s1"]))
    mixed = dm.linear(hidden, params["W_s2"], params["b_s2"])
    mixed = dm.transpose(mixed, (0, 1, 3, 2))  # back to [B,H,E,d_h]
    r = dm.add(mixed, o_t)
    # stage 2: flatten each entity's history and regress the horizon
    r = dm.transpose(r, (0, 2, 1, 3))  # [B,E,H,d_h]
    flat = dm.reshape(r, (B, E, H * d_h))
    y = dm.linear(flat, params["W_out"], params["b_out"])  # [B,E,P*F]
    y = dm.reshape(y, (B, E, config.horizon, config.feature_dim))
    return dm.transpose(y, (0, 2, 1, 3))  # [B,P,E,F]


def forward(x, params: dict[str, dm.Tensor], config: ModelConfig) -> dm.Tensor:
    """Full forward pass: [B,H,E,feature_dim] -> [B,P,E,feature_dim]."""
    o_t, _ = temporal_attention(embed(x, params, config), params)
    return spatial_head(o_t, params, config)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: dict[str, dm.Tensor], config: ModelConfig) -> None:
    """``UMODCKPT`` container: the config in the header, then the arrays of
    ``param_shapes(config)``; raises CheckpointError for any other layout."""
    layout, expected = [(name, p.shape) for name, p in params.items()], param_shapes(config)
    if layout != expected:
        raise CheckpointError(f"{path}: parameters {layout} are not the {expected} of its config")
    header = {"version": CHECKPOINT_VERSION, "config": asdict(config)}
    write_container(path, CHECKPOINT_MAGIC, header, [p.data for p in params.values()])


def load_checkpoint(path):
    """Load (params, config); ``param_shapes`` of the stored config sizes the
    payload, and a config that cannot be built is a bad header."""
    def parse(header):
        config = ModelConfig(**header["config"])
        return config, [shape for _, shape in param_shapes(config)]

    config, arrays = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, parse,
                                    CheckpointError)
    return {name: dm.Tensor(a) for (name, _), a in zip(param_shapes(config), arrays)}, config
