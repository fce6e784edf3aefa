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

import json
import math
import struct
from dataclasses import dataclass, asdict

import numpy as np

from . import diffmath as dm
from .data import SPLIT, ODSeries, ConfigurationError

CHECKPOINT_MAGIC = b"UMODCKPT"
CHECKPOINT_VERSION = 1

STATION_ROWS = "station_rows"
TOP_K_PAIRS = "top_k_pairs"


class CheckpointError(ValueError):
    """Raised when a checkpoint cannot be read or does not match the config."""


@dataclass
class ModelConfig:
    n_entities: int
    history: int
    horizon: int
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
        if self.d_output is None:
            self.d_output = self.feature_dim
        if self.spatial_hidden is None:
            self.spatial_hidden = self.n_entities
        if not (self.use_input_embedding or self.use_adaptive_embedding):
            raise ConfigurationError("at least one embedding must be enabled")
        for name in ("n_entities", "history", "horizon", "d_input", "d_adaptive",
                     "d_output", "spatial_hidden"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")

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
            p.value.zero_grad()

    def count(self) -> int:
        return sum(p.value.size for p in self._params)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {p.name: p.value.data.copy() for p in self._params}

    def restore(self, snap: dict[str, np.ndarray]):
        for p in self._params:
            p.value.data[...] = snap[p.name]


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(config: ModelConfig) -> ModelParams:
    """Xavier-uniform weights, zero biases, fully determined by config.seed."""
    rng = np.random.default_rng(config.seed)
    H, E = config.history, config.n_entities
    d_h = config.d_hidden
    params = []
    if config.use_input_embedding:
        f = config.feature_dim
        params.append(dm.Parameter("W_in", _xavier(rng, f, config.d_input,
                                                   (f, config.d_input))))
        params.append(dm.Parameter("b_in", np.zeros(config.d_input)))
    if config.use_adaptive_embedding:
        # fan over the last two axes: one embedding row per (step, entity)
        params.append(dm.Parameter("E_a", _xavier(rng, E, config.d_adaptive,
                                                  (H, E, config.d_adaptive))))
    for name in ("W_Q", "W_K", "W_V"):
        params.append(dm.Parameter(name, _xavier(rng, d_h, d_h, (d_h, d_h))))
    sh = config.spatial_hidden
    params.append(dm.Parameter("W_s1", _xavier(rng, E, sh, (E, sh))))
    params.append(dm.Parameter("b_s1", np.zeros(sh)))
    params.append(dm.Parameter("W_s2", _xavier(rng, sh, E, (sh, E))))
    params.append(dm.Parameter("b_s2", np.zeros(E)))
    head_in = H * d_h
    head_out = config.horizon * config.d_output
    params.append(dm.Parameter("W_out", _xavier(rng, head_in, head_out,
                                                (head_in, head_out))))
    params.append(dm.Parameter("b_out", np.zeros(head_out)))
    return ModelParams(params)


def param_count(config: ModelConfig) -> int:
    """Closed-form parameter count for a config."""
    H, E, d_h = config.history, config.n_entities, config.d_hidden
    total = 0
    if config.use_input_embedding:
        total += config.feature_dim * config.d_input + config.d_input
    if config.use_adaptive_embedding:
        total += H * E * config.d_adaptive
    total += 3 * d_h * d_h
    sh = config.spatial_hidden
    total += E * sh + sh + sh * E + E
    total += H * d_h * config.horizon * config.d_output + config.horizon * config.d_output
    return total


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
        parts.append(dm.expand_leading(params["E_a"].value, batch))
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
    q = dm.matmul(x, params["W_Q"].value)
    k = dm.matmul(x, params["W_K"].value)
    v = dm.matmul(x, params["W_V"].value)
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
    """The ``[T, E, F]`` view the model forecasts: station rows or top-K pairs."""
    if config.entity_mode == TOP_K_PAIRS:
        return flatten_pairs(series, config.top_k)[1]
    return series.flows


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: ModelParams, config: ModelConfig) -> None:
    """Binary checkpoint: magic, version, config JSON, then named tensors."""
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(params.all())))
        for p in params.all():
            name = p.name.encode("utf-8")
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            fh.write(struct.pack("<I", len(p.shape)))
            fh.write(struct.pack(f"<{len(p.shape)}Q", *p.shape))
            fh.write(p.value.data.astype("<f8").tobytes())


def load_checkpoint(path, expected_config: ModelConfig | None = None):
    """Load (params, config); rejects corrupt files and config mismatches."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        if raw[:8] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {raw[:8]!r}")
        off = 8
        (version,) = struct.unpack_from("<I", raw, off)
        off += 4
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (blob_len,) = struct.unpack_from("<I", raw, off)
        off += 4
        config = ModelConfig.from_dict(json.loads(raw[off:off + blob_len].decode("utf-8")))
        off += blob_len
        (n_params,) = struct.unpack_from("<I", raw, off)
        off += 4
        params = []
        for _ in range(n_params):
            (name_len,) = struct.unpack_from("<I", raw, off)
            off += 4
            name = raw[off:off + name_len].decode("utf-8")
            off += name_len
            (ndim,) = struct.unpack_from("<I", raw, off)
            off += 4
            shape = struct.unpack_from(f"<{ndim}Q", raw, off)
            off += 8 * ndim
            count = int(np.prod(shape)) if ndim else 1
            end = off + 8 * count
            if end > len(raw):
                raise CheckpointError("truncated checkpoint payload")
            value = np.frombuffer(raw[off:end], dtype="<f8").reshape(shape).copy()
            off += 8 * count
            params.append(dm.Parameter(name, value))
        if off != len(raw):
            raise CheckpointError("trailing bytes after checkpoint payload")
    except (struct.error, json.JSONDecodeError, UnicodeDecodeError, IndexError) as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc
    if expected_config is not None and config.to_dict() != expected_config.to_dict():
        raise CheckpointError(
            "checkpoint config does not match the requested config"
        )
    return ModelParams(params), config
