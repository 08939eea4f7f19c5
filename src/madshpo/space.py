"""Mixed-variable hyperparameter space: CNN architecture plus training regime.

A configuration bundles a variable number of convolutional layers (five
integers each), a variable number of fully connected layer sizes, a
categorical optimizer choice, and nine trainer scalars.  Layer counts and
the optimizer are categorical decisions with a fixed five-neighbor
structure; everything else is quantitative and lives on a mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter

import numpy as np

CONV_FIELDS = ("out_channels", "kernel_size", "stride", "padding", "pooling")

# Trainer scalars in canonical serialization order.  Together with the
# optimizer choice these form the 10 non-architecture slots.
SCALAR_FIELDS = (
    "learning_rate",
    "batch_size",
    "dropout",
    "weight_decay",
    "momentum",
    "lr_decay",
    "grad_clip",
    "label_smoothing",
    "epoch_scale",
)

_conv_values = attrgetter(*CONV_FIELDS)
_scalar_values = attrgetter(*SCALAR_FIELDS)

# Slot layouts kept per SpaceBounds instance; past this many distinct
# architecture sizes the cache starts over.
_MAX_LAYOUTS = 256


@dataclass(frozen=True)
class SlotSpec:
    """Bounds and stepping rules for one quantitative slot.

    ``log10`` slots are meshed in log-space (bounds must be positive);
    ``granularity`` is expressed in internal units (decades for log slots)
    and must stay positive.
    """

    lower: float
    upper: float
    granularity: float = 1e-9
    integer: bool = False
    log10: bool = False

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"slot lower {self.lower} > upper {self.upper}")
        if self.granularity <= 0:
            raise ValueError("granularity must be positive")
        if self.log10 and self.lower <= 0:
            raise ValueError("log10 slots need positive lower bound")
        if self.integer and self.log10:
            raise ValueError("integer slots cannot be log10 scaled")

    def to_internal(self, value: float) -> float:
        return math.log10(value) if self.log10 else float(value)

    def from_internal(self, value: float) -> float | int:
        out = 10.0**value if self.log10 else value
        if self.integer:
            return int(round(out))
        return float(out)

    @property
    def internal_lower(self) -> float:
        return self.to_internal(self.lower)

    @property
    def internal_upper(self) -> float:
        return self.to_internal(self.upper)

    def midpoint(self) -> float | int:
        mid = 0.5 * (self.internal_lower + self.internal_upper)
        if self.integer:
            mid = self.granularity * round(mid / self.granularity)
        return self.from_internal(min(max(mid, self.internal_lower), self.internal_upper))


@dataclass(frozen=True)
class ConvLayerHP:
    """Per-convolutional-layer hyperparameters (pooling 1 = no pooling)."""

    out_channels: int
    kernel_size: int
    stride: int
    padding: int
    pooling: int


@dataclass(frozen=True)
class Configuration:
    """One point of the mixed search space.

    The layer counts ``n_conv``/``n_fc`` (categorical decision variables)
    are the lengths of the layer tuples, so they cannot disagree with them.
    ``key`` is the canonical text of :func:`serialize`, computed once per
    object; it is not a field, so it takes no part in equality, hashing or
    repr.
    """

    conv_layers: tuple[ConvLayerHP, ...]
    fc_sizes: tuple[int, ...]
    optimizer: str
    learning_rate: float
    batch_size: int
    dropout: float
    weight_decay: float
    momentum: float
    lr_decay: float
    grad_clip: float
    label_smoothing: float
    epoch_scale: float

    @property
    def n_conv(self) -> int:
        return len(self.conv_layers)

    @property
    def n_fc(self) -> int:
        return len(self.fc_sizes)

    @cached_property
    def key(self) -> str:
        """Canonical text: the ledger text, dedup key and noise-seed input."""
        return serialize(self)


@dataclass(frozen=True)
class SpaceBounds:
    """Per-slot bounds/granularity plus the categorical ranges."""

    n_conv_range: tuple[int, int]
    n_fc_range: tuple[int, int]
    conv_slots: tuple[SlotSpec, SlotSpec, SlotSpec, SlotSpec, SlotSpec]
    fc_slot: SlotSpec
    optimizers: tuple[str, ...]
    scalar_slots: tuple[SlotSpec, ...]

    def __post_init__(self) -> None:
        if self.n_conv_range[0] < 0 or self.n_conv_range[0] > self.n_conv_range[1]:
            raise ValueError(f"bad n_conv range {self.n_conv_range}")
        if self.n_fc_range[0] < 0 or self.n_fc_range[0] > self.n_fc_range[1]:
            raise ValueError(f"bad n_fc range {self.n_fc_range}")
        if len(self.optimizers) < 1:
            raise ValueError("need at least one optimizer")
        if len(self.scalar_slots) != len(SCALAR_FIELDS):
            raise ValueError(f"expected {len(SCALAR_FIELDS)} scalar slots")
        # (n_conv, n_fc) -> SlotLayout; not a field, so it takes no part in
        # equality, hashing or repr.
        object.__setattr__(self, "_layouts", {})


def default_bounds() -> SpaceBounds:
    """Stock search space used by the presets and the CLI."""
    return SpaceBounds(
        n_conv_range=(0, 8),
        n_fc_range=(0, 6),
        conv_slots=(
            SlotSpec(4, 128, granularity=1, integer=True),    # out_channels
            SlotSpec(1, 7, granularity=1, integer=True),      # kernel_size
            SlotSpec(1, 3, granularity=1, integer=True),      # stride
            SlotSpec(0, 3, granularity=1, integer=True),      # padding
            SlotSpec(1, 4, granularity=1, integer=True),      # pooling
        ),
        fc_slot=SlotSpec(16, 1024, granularity=1, integer=True),
        optimizers=("sgd", "adam", "adagrad", "rmsprop"),
        scalar_slots=(
            SlotSpec(1e-6, 1.0, granularity=1e-6, log10=True),   # learning_rate
            SlotSpec(16, 512, granularity=16, integer=True),     # batch_size
            SlotSpec(0.0, 0.95, granularity=1e-9),               # dropout
            SlotSpec(1e-8, 0.1, granularity=1e-6, log10=True),   # weight_decay
            SlotSpec(0.0, 0.99, granularity=1e-9),               # momentum
            SlotSpec(0.1, 0.9, granularity=1e-9),                # lr_decay
            SlotSpec(0.1, 10.0, granularity=1e-6, log10=True),   # grad_clip
            SlotSpec(0.0, 0.3, granularity=1e-9),                # label_smoothing
            SlotSpec(0.5, 2.0, granularity=1e-9),                # epoch_scale
        ),
    )


_DEFAULT_CONV = ConvLayerHP(out_channels=16, kernel_size=5, stride=1, padding=2, pooling=2)


def make_config(
    conv_layers: tuple[ConvLayerHP, ...],
    fc_sizes: tuple[int, ...],
    optimizer: str = "sgd",
    **scalars: float,
) -> Configuration:
    """Build a configuration with layer counts derived from the lists."""
    values = {
        "learning_rate": 0.01,
        "batch_size": 128,
        "dropout": 0.2,
        "weight_decay": 1e-5,
        "momentum": 0.9,
        "lr_decay": 0.5,
        "grad_clip": 2.0,
        "label_smoothing": 0.05,
        "epoch_scale": 1.0,
    }
    unknown = set(scalars) - set(values)
    if unknown:
        raise ValueError(f"unknown scalar fields: {sorted(unknown)}")
    values.update(scalars)
    values["batch_size"] = int(values["batch_size"])
    return Configuration(
        conv_layers=tuple(conv_layers),
        fc_sizes=tuple(int(s) for s in fc_sizes),
        optimizer=optimizer,
        **values,
    )


def preset_config(name: str) -> Configuration:
    """Stock starting points: p1 = 1 conv + 2 FC, p2 = 2 conv + 2 FC, p3 = 5 conv + 1 FC."""
    if name == "p1":
        return make_config((_DEFAULT_CONV,), (128, 64))
    if name == "p2":
        return make_config((_DEFAULT_CONV, _DEFAULT_CONV), (128, 64))
    if name == "p3":
        return make_config((_DEFAULT_CONV,) * 5, (128,))
    raise ValueError(f"unknown preset {name!r} (expected p1, p2 or p3)")


def dimension(n_conv: int, n_fc: int) -> int:
    """Problem dimension: 5 per conv layer, 1 per FC layer, 10 fixed slots."""
    if n_conv < 0 or n_fc < 0:
        raise ValueError("layer counts must be non-negative")
    return 5 * n_conv + n_fc + 10


@dataclass(frozen=True)
class Slot:
    """One quantitative slot of a concrete configuration."""

    name: str
    spec: SlotSpec


@dataclass(frozen=True, eq=False)  # arrays: compare layouts by identity
class SlotLayout:
    """The quantitative slots of one architecture size, with their
    granularities and internal-scale bounds as arrays (slot order) and the
    positions of the log10 slots."""

    slots: tuple[Slot, ...]
    granularity: np.ndarray
    lowers: np.ndarray
    uppers: np.ndarray
    log10_positions: tuple[int, ...]


def slot_layout(bounds: SpaceBounds, n_conv: int, n_fc: int) -> SlotLayout:
    """Slot layout for a given architecture size, built once per bounds object."""
    layouts = bounds._layouts
    layout = layouts.get((n_conv, n_fc))
    if layout is not None:
        return layout
    slots: list[Slot] = []
    for i in range(n_conv):
        for field, spec in zip(CONV_FIELDS, bounds.conv_slots):
            slots.append(Slot(f"conv{i}.{field}", spec))
    for i in range(n_fc):
        slots.append(Slot(f"fc{i}", bounds.fc_slot))
    for field, spec in zip(SCALAR_FIELDS, bounds.scalar_slots):
        slots.append(Slot(field, spec))
    layout = SlotLayout(
        tuple(slots),
        np.array([s.spec.granularity for s in slots]),
        np.array([s.spec.internal_lower for s in slots]),
        np.array([s.spec.internal_upper for s in slots]),
        tuple(i for i, s in enumerate(slots) if s.spec.log10),
    )
    if len(layouts) >= _MAX_LAYOUTS:
        layouts.clear()
    layouts[(n_conv, n_fc)] = layout
    return layout


def quantitative_slots(bounds: SpaceBounds, n_conv: int, n_fc: int) -> tuple[Slot, ...]:
    """Ordered quantitative slots for a given architecture size."""
    return slot_layout(bounds, n_conv, n_fc).slots


def to_vector(config: Configuration, bounds: SpaceBounds) -> np.ndarray:
    """Quantitative slots as an internal-scale vector (slot order)."""
    values = [value for layer in config.conv_layers for value in _conv_values(layer)]
    values.extend(config.fc_sizes)
    values.extend(_scalar_values(config))
    layout = slot_layout(bounds, len(config.conv_layers), len(config.fc_sizes))
    for i in layout.log10_positions:
        values[i] = math.log10(values[i])
    return np.array(values, dtype=float)


def with_vector(config: Configuration, bounds: SpaceBounds, vec: np.ndarray | list[float]) -> Configuration:
    """Rebuild a configuration from an internal-scale vector (categoricals kept)."""
    slots = slot_layout(bounds, config.n_conv, config.n_fc).slots
    if len(vec) != len(slots):
        raise ValueError(f"vector length {len(vec)} != slot count {len(slots)}")
    values = [slot.spec.from_internal(v) for slot, v in zip(slots, vec)]
    n_conv_values = 5 * config.n_conv
    n_quant = n_conv_values + config.n_fc
    return Configuration(
        conv_layers=tuple(
            ConvLayerHP(**dict(zip(CONV_FIELDS, values[i:i + 5])))
            for i in range(0, n_conv_values, 5)
        ),
        fc_sizes=tuple(values[n_conv_values:n_quant]),
        optimizer=config.optimizer,
        **dict(zip(SCALAR_FIELDS, values[n_quant:])),
    )


def validate(config: Configuration, bounds: SpaceBounds) -> list[str]:
    """Return a list of violations (empty list means the configuration is valid)."""
    problems: list[str] = []
    lo, hi = bounds.n_conv_range
    if not lo <= config.n_conv <= hi:
        problems.append(f"n_conv={config.n_conv} outside [{lo}, {hi}]")
    lo, hi = bounds.n_fc_range
    if not lo <= config.n_fc <= hi:
        problems.append(f"n_fc={config.n_fc} outside [{lo}, {hi}]")
    if config.optimizer not in bounds.optimizers:
        problems.append(f"optimizer={config.optimizer!r} not in {bounds.optimizers}")

    def check(name: str, value: float, spec: SlotSpec) -> None:
        if spec.integer and value != int(value):
            problems.append(f"{name}={value} must be an integer")
        if not spec.lower <= value <= spec.upper:
            problems.append(f"{name}={value} outside [{spec.lower}, {spec.upper}]")

    for i, layer in enumerate(config.conv_layers):
        for field, spec in zip(CONV_FIELDS, bounds.conv_slots):
            check(f"conv{i}.{field}", getattr(layer, field), spec)
    for i, size in enumerate(config.fc_sizes):
        check(f"fc{i}", size, bounds.fc_slot)
    for field, spec in zip(SCALAR_FIELDS, bounds.scalar_slots):
        check(field, getattr(config, field), spec)
    return problems


def neighbors(config: Configuration, bounds: SpaceBounds) -> list[Configuration]:
    """Categorical neighborhood: up to five one-decision moves.

    Order: +conv layer, -conv layer, +FC layer, -FC layer, next optimizer.
    Moves that would leave the configured layer-count ranges are omitted,
    as is the optimizer move when only one optimizer is allowed.
    """
    problems = validate(config, bounds)
    if problems:
        raise ValueError("invalid configuration: " + "; ".join(problems))
    out: list[Configuration] = []
    if config.n_conv + 1 <= bounds.n_conv_range[1]:
        new_layer = ConvLayerHP(
            **{f: s.midpoint() for f, s in zip(CONV_FIELDS, bounds.conv_slots)}
        )
        out.append(replace(config, conv_layers=config.conv_layers + (new_layer,)))
    if config.n_conv - 1 >= bounds.n_conv_range[0]:
        out.append(replace(config, conv_layers=config.conv_layers[:-1]))
    if config.n_fc + 1 <= bounds.n_fc_range[1]:
        out.append(replace(config, fc_sizes=config.fc_sizes + (int(bounds.fc_slot.midpoint()),)))
    if config.n_fc - 1 >= bounds.n_fc_range[0]:
        out.append(replace(config, fc_sizes=config.fc_sizes[:-1]))
    if len(bounds.optimizers) > 1:
        idx = bounds.optimizers.index(config.optimizer)
        successor = bounds.optimizers[(idx + 1) % len(bounds.optimizers)]
        out.append(replace(config, optimizer=successor))
    return out


def _format(value) -> str:
    kind = type(value)
    if kind is float:
        return repr(value)
    if kind is int:
        return str(value)
    if isinstance(value, bool):
        raise TypeError("bool is not a slot value")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def serialize(config: Configuration) -> str:
    """Flat ``name=value`` tokens, space separated, in canonical slot order."""
    tokens = [
        f"conv{i}.{field}={_format(value)}"
        for i, layer in enumerate(config.conv_layers)
        for field, value in zip(CONV_FIELDS, _conv_values(layer))
    ]
    tokens += [f"fc{i}={_format(size)}" for i, size in enumerate(config.fc_sizes)]
    tokens.append(f"optimizer={config.optimizer}")
    tokens += [
        f"{field}={_format(value)}" for field, value in zip(SCALAR_FIELDS, _scalar_values(config))
    ]
    return " ".join(tokens)


def deserialize(text: str) -> Configuration:
    """Parse the output of :func:`serialize` back into a configuration.

    The text need not be canonical, so it does not become the result's ``key``."""
    conv_values: dict[int, dict[str, int]] = {}
    fc_values: dict[int, int] = {}
    scalars: dict[str, float | str] = {}  # the optimizer token too, until popped
    for token in text.split():
        name, _, raw = token.partition("=")
        if not raw:
            raise ValueError(f"malformed token {token!r}")
        if name.startswith("conv"):
            head, _, field = name.partition(".")
            if field not in CONV_FIELDS:
                raise ValueError(f"unknown conv field in {token!r}")
            values, key, value = conv_values.setdefault(int(head[4:]), {}), field, int(raw)
        elif name.startswith("fc"):
            values, key, value = fc_values, int(name[2:]), int(raw)
        elif name == "optimizer":
            values, key, value = scalars, name, raw
        elif name in SCALAR_FIELDS:
            values, key, value = scalars, name, int(raw) if name == "batch_size" else float(raw)
        else:
            raise ValueError(f"unknown slot {name!r}")
        if key in values:
            raise ValueError(f"repeated token {token!r}")
        values[key] = value
    optimizer = scalars.pop("optimizer", None)
    if optimizer is None:
        raise ValueError("missing optimizer token")
    missing = set(SCALAR_FIELDS) - set(scalars)
    if missing:
        raise ValueError(f"missing scalar tokens: {sorted(missing)}")
    layers = []
    for i in range(len(conv_values)):
        if i not in conv_values or set(conv_values[i]) != set(CONV_FIELDS):
            raise ValueError(f"conv layer {i} incomplete")
        layers.append(ConvLayerHP(**conv_values[i]))
    fcs = []
    for i in range(len(fc_values)):
        if i not in fc_values:
            raise ValueError(f"fc slot {i} missing")
        fcs.append(fc_values[i])
    return Configuration(
        conv_layers=tuple(layers),
        fc_sizes=tuple(fcs),
        optimizer=optimizer,
        **scalars,  # type: ignore[arg-type]
    )
