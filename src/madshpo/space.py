"""Mixed-variable hyperparameter space: CNN architecture plus training regime.

A configuration bundles a variable number of convolutional layers (five
integers each), a variable number of fully connected layer sizes, a
categorical optimizer choice, and nine trainer scalars.  Layer counts and
the optimizer are categorical decisions with a fixed five-neighbor
structure; everything else is quantitative and lives on a mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from operator import attrgetter

import numpy as np

# Architecture sizes whose slot layouts each SpaceBounds instance keeps (the
# cache then starts over), and whose slot names the module keeps.
_MAX_LAYOUTS = 256


@dataclass(frozen=True)
class SlotSpec:
    """Bounds and stepping rules for one quantitative slot.

    ``log10`` slots are meshed in log-space (bounds must be positive), and
    ``granularity`` is in internal units (decades for log slots) and must be
    positive.  A slot's type is that of the ``Configuration`` field it fills.
    """

    lower: float
    upper: float
    granularity: float = 1e-9
    log10: bool = False

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"slot lower {self.lower} > upper {self.upper}")
        if self.granularity <= 0:
            raise ValueError("granularity must be positive")
        if self.log10 and self.lower <= 0:
            raise ValueError("log10 slots need positive lower bound")

    def to_internal(self, value: float) -> float:
        return math.log10(value) if self.log10 else float(value)

    @property
    def internal_lower(self) -> float:
        return self.to_internal(self.lower)

    @property
    def internal_upper(self) -> float:
        return self.to_internal(self.upper)

    def midpoint(self) -> int:
        """The grid point nearest the middle of an integer slot's range."""
        mid = self.granularity * round(0.5 * (self.lower + self.upper) / self.granularity)
        return int(round(min(max(mid, self.lower), self.upper)))


@dataclass(frozen=True)
class ConvLayerHP:
    """Per-convolutional-layer hyperparameters; their field order is the
    slot order of a layer (pooling 1 = no pooling)."""

    out_channels: int
    kernel_size: int
    stride: int
    padding: int
    pooling: int


CONV_FIELDS = tuple(f.name for f in fields(ConvLayerHP))
_conv_values = attrgetter(*CONV_FIELDS)


@dataclass(frozen=True)
class Configuration:
    """One point of the mixed search space.

    The layer counts ``n_conv``/``n_fc`` (categorical decision variables)
    are the lengths of the layer tuples, so they cannot disagree with them.
    The optimizer and the trainer scalars default to the stock values, and
    the scalars' field order is their canonical serialization order
    (``SCALAR_FIELDS``).  ``key`` is the canonical text of
    :func:`serialize`, computed once per object; it is not a field, so it
    takes no part in equality, hashing or repr.
    """

    conv_layers: tuple[ConvLayerHP, ...]
    fc_sizes: tuple[int, ...]
    optimizer: str = "sgd"
    learning_rate: float = 0.01
    batch_size: int = 128
    dropout: float = 0.2
    weight_decay: float = 1e-5
    momentum: float = 0.9
    lr_decay: float = 0.5
    grad_clip: float = 2.0
    label_smoothing: float = 0.05
    epoch_scale: float = 1.0

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


# The trainer scalars: Configuration's fields after the optimizer.  Together
# with the optimizer choice they form the non-architecture slots.
SCALAR_FIELDS = tuple(f.name for f in fields(Configuration))[3:]
_scalar_values = attrgetter(*SCALAR_FIELDS)
# The trainer scalars that hold floats, read from the annotations; every
# other quantitative slot, each layer's included, holds an integer.
_FLOAT_SCALARS = frozenset(f.name for f in fields(Configuration) if f.type == "float")


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
        for name in self.optimizers:
            # the name is a token of the configuration text and a ledger field
            if name.split() != [name] or "," in name or '"' in name:
                raise ValueError(f"optimizer name {name!r} is empty or holds whitespace, a comma or a quote")
        if len(self.scalar_slots) != len(SCALAR_FIELDS):
            raise ValueError(f"expected {len(SCALAR_FIELDS)} scalar slots")
        integer_scalars = (s for name, s in zip(SCALAR_FIELDS, self.scalar_slots) if name not in _FLOAT_SCALARS)
        if any(s.log10 for s in (*self.conv_slots, self.fc_slot, *integer_scalars)):
            raise ValueError("integer slots cannot be log10 scaled")
        # (n_conv, n_fc) -> SlotLayout; not a field, so it takes no part in
        # equality, hashing or repr.
        object.__setattr__(self, "_layouts", {})


def default_bounds() -> SpaceBounds:
    """Stock search space used by the presets and the CLI."""
    return SpaceBounds(
        n_conv_range=(0, 8),
        n_fc_range=(0, 6),
        conv_slots=(
            SlotSpec(4, 128, granularity=1),  # out_channels
            SlotSpec(1, 7, granularity=1),    # kernel_size
            SlotSpec(1, 3, granularity=1),    # stride
            SlotSpec(0, 3, granularity=1),    # padding
            SlotSpec(1, 4, granularity=1),    # pooling
        ),
        fc_slot=SlotSpec(16, 1024, granularity=1),
        optimizers=("sgd", "adam", "adagrad", "rmsprop"),
        scalar_slots=(
            SlotSpec(1e-6, 1.0, granularity=1e-6, log10=True),   # learning_rate
            SlotSpec(16, 512, granularity=16),                   # batch_size
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
    optimizer: str = Configuration.optimizer,
    **scalars: float,
) -> Configuration:
    """Build a configuration from layer sequences; scalars not given keep
    ``Configuration``'s stock values.  A bool, or a fraction for an integer
    slot, is refused."""
    unknown = scalars.keys() - set(SCALAR_FIELDS)
    if unknown:
        raise ValueError(f"unknown scalar fields: {sorted(unknown)}")
    # each value takes its slot's type (a float slot given 0 holds 0.0); a float slot's float stays as given
    for name, value in scalars.items():
        if name not in _FLOAT_SCALARS or not isinstance(value, float):
            scalars[name] = _slot_number(name, value)
    fc_sizes = tuple(_slot_number(f"fc{i}", s) for i, s in enumerate(fc_sizes))
    return Configuration(tuple(conv_layers), fc_sizes, optimizer, **scalars)


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
    """Problem dimension: one slot per conv field of each conv layer, one per
    FC layer, then the optimizer and the trainer scalars."""
    if n_conv < 0 or n_fc < 0:
        raise ValueError("layer counts must be non-negative")
    return len(CONV_FIELDS) * n_conv + n_fc + len(SCALAR_FIELDS) + 1


@lru_cache(maxsize=_MAX_LAYOUTS)
def slot_names(n_conv: int, n_fc: int) -> tuple[str, ...]:
    """Names of the quantitative slots in canonical order: each conv layer's
    fields by layer index, then the FC sizes, then the trainer scalars in
    ``Configuration``'s field order."""
    convs = [f"conv{i}.{field}" for i in range(n_conv) for field in CONV_FIELDS]
    return (*convs, *(f"fc{i}" for i in range(n_fc)), *SCALAR_FIELDS)


def _raw_values(config: Configuration) -> list:
    """Stored values of the quantitative slots, in slot order."""
    values = [value for layer in config.conv_layers for value in _conv_values(layer)]
    values.extend(config.fc_sizes)
    values.extend(_scalar_values(config))
    return values


def _from_values(optimizer: str, n_conv: int, values: list) -> Configuration:
    """The configuration whose quantitative slots hold ``values`` in slot order."""
    width = len(CONV_FIELDS)
    n_conv_values = width * n_conv
    n_quant = len(values) - len(SCALAR_FIELDS)
    return Configuration(
        tuple(ConvLayerHP(*values[i:i + width]) for i in range(0, n_conv_values, width)),
        tuple(values[n_conv_values:n_quant]),
        optimizer,
        *values[n_quant:],
    )


@dataclass(frozen=True)
class Slot:
    """One quantitative slot of a concrete configuration."""

    name: str
    spec: SlotSpec


@dataclass(frozen=True, eq=False)  # arrays: compare layouts by identity
class SlotLayout:
    """The quantitative slots of one architecture size, with their
    granularities and internal-scale bounds as arrays (slot order) and the
    positions of the log10 slots and of the integer slots."""

    slots: tuple[Slot, ...]
    granularity: np.ndarray
    lowers: np.ndarray
    uppers: np.ndarray
    log10_positions: tuple[int, ...]
    integer_positions: tuple[int, ...]


def slot_layout(bounds: SpaceBounds, n_conv: int, n_fc: int) -> SlotLayout:
    """Slot layout for a given architecture size, built once per bounds object."""
    layouts = bounds._layouts
    layout = layouts.get((n_conv, n_fc))
    if layout is not None:
        return layout
    specs = bounds.conv_slots * n_conv + (bounds.fc_slot,) * n_fc + bounds.scalar_slots
    slots = tuple(map(Slot, slot_names(n_conv, n_fc), specs))
    layout = SlotLayout(
        slots,
        np.array([s.spec.granularity for s in slots]),
        np.array([s.spec.internal_lower for s in slots]),
        np.array([s.spec.internal_upper for s in slots]),
        tuple(i for i, s in enumerate(slots) if s.spec.log10),
        tuple(i for i, s in enumerate(slots) if s.name not in _FLOAT_SCALARS),
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
    values = _raw_values(config)
    for i in slot_layout(bounds, config.n_conv, config.n_fc).log10_positions:
        values[i] = math.log10(values[i])
    return np.array(values, dtype=float)


def with_vector(config: Configuration, bounds: SpaceBounds, vec: np.ndarray | list[float]) -> Configuration:
    """Rebuild a configuration from an internal-scale vector (categoricals kept)."""
    layout = slot_layout(bounds, config.n_conv, config.n_fc)
    if len(vec) != len(layout.slots):
        raise ValueError(f"vector length {len(vec)} != slot count {len(layout.slots)}")
    values = list(map(float, vec))
    for i in layout.log10_positions:
        values[i] = 10.0**values[i]
    for i in layout.integer_positions:
        values[i] = int(round(values[i]))
    return _from_values(config.optimizer, config.n_conv, values)


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
    for slot, value in zip(slot_layout(bounds, config.n_conv, config.n_fc).slots, _raw_values(config)):
        spec = slot.spec
        if slot.name not in _FLOAT_SCALARS and value != int(value):
            problems.append(f"{slot.name}={value} must be an integer")
        if not spec.lower <= value <= spec.upper:
            problems.append(f"{slot.name}={value} outside [{spec.lower}, {spec.upper}]")
    return problems


def neighbors(config: Configuration, bounds: SpaceBounds) -> list[Configuration]:
    """Categorical neighborhood: up to five one-decision moves.

    Order: +conv layer, -conv layer, +FC layer, -FC layer, next optimizer.
    Moves that would leave the configured layer-count ranges are omitted,
    as is the optimizer move when only one optimizer is allowed.  ``config``
    must be valid in ``bounds``: the campaign loop validates its incumbent
    where it enters.
    """
    out: list[Configuration] = []
    if config.n_conv + 1 <= bounds.n_conv_range[1]:
        new_layer = ConvLayerHP(
            **{f: s.midpoint() for f, s in zip(CONV_FIELDS, bounds.conv_slots)}
        )
        out.append(replace(config, conv_layers=config.conv_layers + (new_layer,)))
    if config.n_conv - 1 >= bounds.n_conv_range[0]:
        out.append(replace(config, conv_layers=config.conv_layers[:-1]))
    if config.n_fc + 1 <= bounds.n_fc_range[1]:
        out.append(replace(config, fc_sizes=config.fc_sizes + (bounds.fc_slot.midpoint(),)))
    if config.n_fc - 1 >= bounds.n_fc_range[0]:
        out.append(replace(config, fc_sizes=config.fc_sizes[:-1]))
    if len(bounds.optimizers) > 1:
        idx = bounds.optimizers.index(config.optimizer)
        successor = bounds.optimizers[(idx + 1) % len(bounds.optimizers)]
        out.append(replace(config, optimizer=successor))
    return out


def _slot_number(name: str, value) -> int | float:
    """``value`` as slot ``name`` holds it: a float for a float trainer
    scalar, else an int.  A bool, or a value with a fraction for an integer
    slot, is refused."""
    if type(value) is (float if name in _FLOAT_SCALARS else int):
        return value
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name}: bool is not a slot value")
    if name in _FLOAT_SCALARS:
        return float(value)
    if not float(value).is_integer():
        raise ValueError(f"{name}={value!r} is not an integer")
    return int(value)


def serialize(config: Configuration) -> str:
    """Flat ``name=value`` tokens, space separated, in canonical slot order
    with the optimizer before the trainer scalars: the order of
    ``Configuration``'s fields, each conv layer spelled out.  A value is
    spelled as :func:`deserialize` reads its slot: ``str(int(v))`` or ``repr(float(v))``."""
    names = slot_names(config.n_conv, config.n_fc)
    tokens = [f"{name}={_slot_number(name, value)!r}"
              for name, value in zip(names, _raw_values(config))]
    tokens.insert(len(tokens) - len(SCALAR_FIELDS), f"optimizer={config.optimizer}")
    return " ".join(tokens)


def deserialize(text: str) -> Configuration:
    """Parse the output of :func:`serialize` back into a configuration.

    The layer counts come from the ``conv<i>.`` and ``fc<i>`` names, and the
    tokens must then name exactly the slots of :func:`slot_names` plus the
    optimizer, in any order.  The text need not be canonical, so it does not
    become the result's ``key``."""
    raw: dict[str, str] = {}
    for token in text.split():
        name, _, value = token.partition("=")
        if not value:
            raise ValueError(f"malformed token {token!r}")
        if name in raw:
            raise ValueError(f"repeated token {token!r}")
        raw[name] = value
    optimizer = raw.pop("optimizer", None)
    if optimizer is None:
        raise ValueError("missing optimizer token")
    n_conv = len({name.partition(".")[0] for name in raw if name.startswith("conv")})
    n_fc = sum(name.startswith("fc") for name in raw)
    names = slot_names(n_conv, n_fc)
    if raw.keys() != set(names):
        unknown = sorted(raw.keys() - set(names))
        missing = [name for name in names if name not in raw]
        raise ValueError(f"slots do not match {n_conv} conv and {n_fc} FC layers: "
                         f"unknown {unknown}, missing {missing}")
    values = [float(raw[name]) if name in _FLOAT_SCALARS else int(raw[name]) for name in names]
    return _from_values(optimizer, n_conv, values)
