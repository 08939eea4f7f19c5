import re
from dataclasses import fields, replace

import numpy as np
import pytest

from madshpo import blackbox, campaign, mads, space
from madshpo.blackbox import EvaluationRequest, SimulatedBlackbox
from madshpo.mads import Mesh, generate_poll
from madshpo.util import hash_u64
from madshpo.space import (
    CONV_FIELDS,
    SCALAR_FIELDS,
    Configuration,
    ConvLayerHP,
    SlotSpec,
    SpaceBounds,
    default_bounds,
    deserialize,
    dimension,
    make_config,
    neighbors,
    preset_config,
    quantitative_slots,
    serialize,
    slot_layout,
    to_vector,
    validate,
    with_vector,
)


@pytest.fixture(scope="module")
def bounds():
    return default_bounds()


class TestDimension:
    @pytest.mark.parametrize(
        "n_conv,n_fc,expected",
        [(1, 2, 17), (2, 2, 22), (5, 1, 36), (0, 0, 10)],
    )
    def test_values(self, n_conv, n_fc, expected):
        assert dimension(n_conv, n_fc) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dimension(-1, 0)
        with pytest.raises(ValueError):
            dimension(0, -2)

    def test_increments(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n1 = int(rng.integers(1, 10))
            n2 = int(rng.integers(1, 10))
            assert dimension(n1, n2) - dimension(n1, n2 - 1) == 1
            assert dimension(n1, n2) - dimension(n1 - 1, n2) == 5

    def test_matches_serialized_slot_count(self, bounds):
        for name in ("p1", "p2", "p3"):
            config = preset_config(name)
            assert len(serialize(config).split()) == dimension(config.n_conv, config.n_fc)


class TestNeighbors:
    def test_default_point_has_five(self, bounds):
        p1 = preset_config("p1")
        out = neighbors(p1, bounds)
        assert len(out) == 5
        assert out[0].n_conv == 2 and out[0].n_fc == 2
        assert out[1].n_conv == 0 and out[1].n_fc == 2
        assert out[2].n_fc == 3 and out[2].n_conv == 1
        assert out[3].n_fc == 1
        assert out[4].n_conv == 1 and out[4].n_fc == 2
        assert out[4].optimizer == "adam"

    def test_lower_bound_omits_removal(self, bounds):
        clipped = SpaceBounds(
            n_conv_range=(1, 8),
            n_fc_range=bounds.n_fc_range,
            conv_slots=bounds.conv_slots,
            fc_slot=bounds.fc_slot,
            optimizers=bounds.optimizers,
            scalar_slots=bounds.scalar_slots,
        )
        out = neighbors(preset_config("p1"), clipped)
        assert len(out) == 4
        assert all(n.n_conv >= 1 for n in out)

    def test_upper_bound_omits_addition(self, bounds):
        clipped = SpaceBounds(
            n_conv_range=(0, 1),
            n_fc_range=bounds.n_fc_range,
            conv_slots=bounds.conv_slots,
            fc_slot=bounds.fc_slot,
            optimizers=bounds.optimizers,
            scalar_slots=bounds.scalar_slots,
        )
        out = neighbors(preset_config("p1"), clipped)
        assert all(n.n_conv <= 1 for n in out)
        assert len(out) == 4

    def test_optimizer_cycles_back_to_first(self, bounds):
        config = make_config((), (), optimizer=bounds.optimizers[-1])
        out = neighbors(config, bounds)
        flips = [n for n in out if n.optimizer != config.optimizer]
        assert len(flips) == 1
        assert flips[0].optimizer == bounds.optimizers[0]

    def test_new_layers_use_midpoint_defaults(self, bounds):
        out = neighbors(preset_config("p1"), bounds)
        added = out[0].conv_layers[-1]
        assert added == ConvLayerHP(66, 4, 2, 2, 2)
        assert out[2].fc_sizes[-1] == 520

    def test_single_categorical_difference(self, bounds):
        rng = np.random.default_rng(1)
        for _ in range(30):
            config = _random_config(rng, bounds)
            for n in neighbors(config, bounds):
                assert validate(n, bounds) == []
                diffs = sum(
                    [
                        n.n_conv != config.n_conv,
                        n.n_fc != config.n_fc,
                        n.optimizer != config.optimizer,
                    ]
                )
                assert diffs == 1
                # untouched slots carried over verbatim
                if n.n_conv == config.n_conv:
                    assert n.conv_layers == config.conv_layers
                if n.n_fc == config.n_fc:
                    assert n.fc_sizes == config.fc_sizes


class TestValidate:
    def test_default_preset_ok(self, bounds):
        assert validate(preset_config("p1"), bounds) == []

    def test_dropout_out_of_range_named(self, bounds):
        problems = validate(make_config((), (), dropout=1.5), bounds)
        assert any("dropout" in p for p in problems)


def _linear_lr_bounds():
    """Bounds whose learning-rate slot is linear with 1e-3 granularity."""
    b = default_bounds()
    slots = list(b.scalar_slots)
    slots[0] = SlotSpec(0.0, 1.0, granularity=1e-3)
    return SpaceBounds(
        n_conv_range=b.n_conv_range,
        n_fc_range=b.n_fc_range,
        conv_slots=b.conv_slots,
        fc_slot=b.fc_slot,
        optimizers=b.optimizers,
        scalar_slots=tuple(slots),
    )


class TestProjectToMesh:
    def test_nearest_multiple_rounding(self):
        bounds = _linear_lr_bounds()
        config = make_config((), (), learning_rate=0.01234)
        # mesh delta below granularity -> effective step is exactly 1e-3
        projected = Mesh(-12).project(config, bounds)
        assert projected.learning_rate == pytest.approx(0.012, abs=1e-12)

    def test_integer_slot_on_mesh_unchanged(self, bounds):
        config = make_config((), (), batch_size=128)
        projected = Mesh(-3).project(config, bounds)
        assert projected.batch_size == 128
        assert isinstance(projected.batch_size, int)

    def test_value_above_upper_clipped(self):
        bounds = _linear_lr_bounds()
        config = make_config((), (), learning_rate=0.9999)
        projected = Mesh(0).project(config, bounds)
        assert projected.learning_rate <= 1.0

    def test_idempotent_and_bound_respecting(self, bounds):
        rng = np.random.default_rng(2)
        for _ in range(50):
            config = _random_config(rng, bounds, clip=False)
            mesh = Mesh(int(rng.integers(-10, 1)))
            once = mesh.project(config, bounds)
            twice = mesh.project(once, bounds)
            assert once == twice
            assert validate(once, bounds) == []


class TestSerialization:
    def test_round_trip_exact(self, bounds):
        rng = np.random.default_rng(3)
        for _ in range(50):
            config = _random_config(rng, bounds)
            assert deserialize(serialize(config)) == config

    def test_token_order_fixed(self):
        tokens = serialize(preset_config("p1")).split()
        names = [t.split("=")[0] for t in tokens]
        assert names[:5] == [f"conv0.{f}" for f in CONV_FIELDS]
        assert names[5:7] == ["fc0", "fc1"]
        assert names[7] == "optimizer"
        assert names[8:] == list(SCALAR_FIELDS)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            deserialize("optimizer=sgd learning_rate")
        with pytest.raises(ValueError):
            deserialize("bogus=1 " + serialize(preset_config("p1")))
        with pytest.raises(ValueError, match="repeated token 'learning_rate=0.5'"):
            deserialize(serialize(preset_config("p1")) + " learning_rate=0.5 fc0=999")

    @pytest.mark.parametrize("preset", ["p1", "p2", "p3"])
    def test_presets_and_neighbors_round_trip(self, bounds, preset):
        start = preset_config(preset)
        for config in [start, *neighbors(start, bounds)]:
            text = serialize(config)
            back = deserialize(text)
            assert back == config and back.key == text
            assert with_vector(config, bounds, to_vector(config, bounds)) == config


@pytest.mark.parametrize("name", ["", "my opt", "adam\t", "sgd,w", 'a"b'])
def test_optimizer_names_the_text_cannot_carry_are_refused(bounds, name):
    # deserialize splits the text on whitespace, and read_ledger splits a row
    # on commas and refuses quotes
    with pytest.raises(ValueError, match=re.escape(f"optimizer name {name!r} is empty or holds whitespace")):
        replace(bounds, optimizers=("sgd", name))


# Recorded from the code before the slot order had one owner: texts that
# deserialize refuses, each one edit away from the p1 text.
_P1_TEXT = (
    "conv0.out_channels=16 conv0.kernel_size=5 conv0.stride=1 conv0.padding=2 conv0.pooling=2 "
    "fc0=128 fc1=64 optimizer=sgd learning_rate=0.01 batch_size=128 dropout=0.2 "
    "weight_decay=1e-05 momentum=0.9 lr_decay=0.5 grad_clip=2.0 label_smoothing=0.05 epoch_scale=1.0"
)
REFUSED_TEXTS = {
    "no-equals": _P1_TEXT + " learning_rate",
    "empty-value": _P1_TEXT.replace("dropout=0.2", "dropout="),
    "unknown-slot": "bogus=1 " + _P1_TEXT,
    "no-optimizer": _P1_TEXT.replace("optimizer=sgd ", ""),
    "missing-scalar": _P1_TEXT.replace("dropout=0.2 ", ""),
    "incomplete-conv": _P1_TEXT.replace("conv0.pooling=2 ", ""),
    "fc-gap": _P1_TEXT.replace("fc1=64", "fc2=64"),
    "conv-from-1": _P1_TEXT.replace("conv0.", "conv1."),
    "unknown-conv-field": _P1_TEXT.replace("conv0.pooling", "conv0.pool"),
    "float-kernel": _P1_TEXT.replace("conv0.kernel_size=5", "conv0.kernel_size=5.0"),
    "float-fc": _P1_TEXT.replace("fc0=128", "fc0=128.0"),
    "float-batch": _P1_TEXT.replace("batch_size=128", "batch_size=128.0"),
}


@pytest.mark.parametrize("text", list(REFUSED_TEXTS.values()), ids=list(REFUSED_TEXTS))
def test_deserialize_refuses(text):
    with pytest.raises(ValueError):
        deserialize(text)


def test_repeated_token_refused_by_name():
    with pytest.raises(ValueError, match="repeated token 'fc0=1'"):
        deserialize(_P1_TEXT + " fc0=1")


# Recorded from the code before the slot order had one owner: the exact
# problem list validate returns for each invalid configuration.
_P1_CONV = ConvLayerHP(16, 5, 1, 2, 2)
INVALID_CONFIGS = {
    "float-batch": (
        replace(preset_config("p1"), batch_size=100.5),
        ["batch_size=100.5 must be an integer"],
    ),
    "float-batch-too-large": (
        replace(preset_config("p1"), batch_size=600.5),
        ["batch_size=600.5 must be an integer", "batch_size=600.5 outside [16, 512]"],
    ),
    "dropout": (make_config((), (), dropout=1.5), ["dropout=1.5 outside [0.0, 0.95]"]),
    "fc-2000": (make_config((), (2000, 64)), ["fc0=2000 outside [16, 1024]"]),
    "out-channels-0": (
        make_config((ConvLayerHP(0, 5, 1, 2, 2),), (128,)),
        ["conv0.out_channels=0 outside [4, 128]"],
    ),
    "nine-conv": (make_config((_P1_CONV,) * 9, ()), ["n_conv=9 outside [0, 8]"]),
    "seven-fc": (make_config((), (128,) * 7), ["n_fc=7 outside [0, 6]"]),
    "optimizer": (
        make_config((), (), optimizer="lbfgs"),
        ["optimizer='lbfgs' not in ('sgd', 'adam', 'adagrad', 'rmsprop')"],
    ),
    "several": (
        make_config((_P1_CONV, ConvLayerHP(16, 9, 1, 2, 2)), (64, 2000), optimizer="lbfgs",
                    dropout=1.5, batch_size=8),
        [
            "optimizer='lbfgs' not in ('sgd', 'adam', 'adagrad', 'rmsprop')",
            "conv1.kernel_size=9 outside [1, 7]",
            "fc1=2000 outside [16, 1024]",
            "batch_size=8 outside [16, 512]",
            "dropout=1.5 outside [0.0, 0.95]",
        ],
    ),
}


@pytest.mark.parametrize("config,problems", list(INVALID_CONFIGS.values()), ids=list(INVALID_CONFIGS))
def test_validate_problem_lists(bounds, config, problems):
    assert validate(config, bounds) == problems


# Each refused slot rule, with the text it is refused by.
REFUSED_SLOTS = {
    "lower-above-upper": (dict(lower=2.0, upper=1.0), "slot lower 2.0 > upper 1.0"),
    "zero-granularity": (dict(lower=0.0, upper=1.0, granularity=0.0), "granularity must be positive"),
    "log10-from-zero": (dict(lower=0.0, upper=1.0, log10=True), "log10 slots need positive lower bound"),
}


@pytest.mark.parametrize("kwargs,message", list(REFUSED_SLOTS.values()), ids=list(REFUSED_SLOTS))
def test_slot_spec_refuses(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SlotSpec(**kwargs)


# Each refused field of the stock bounds, with the text it is refused by.
REFUSED_BOUNDS = {
    "n_conv-range-reversed": (dict(n_conv_range=(3, 2)), "bad n_conv range (3, 2)"),
    "n_fc-range-negative": (dict(n_fc_range=(-1, 2)), "bad n_fc range (-1, 2)"),
    "no-optimizer": (dict(optimizers=()), "need at least one optimizer"),
    "eight-scalar-slots": (dict(scalar_slots=default_bounds().scalar_slots[:-1]), "expected 9 scalar slots"),
    # a slot's type is its Configuration field's, so every conv and FC slot and batch_size hold integers
    "log10-conv-slot": (dict(conv_slots=(SlotSpec(4, 128, log10=True), *default_bounds().conv_slots[1:])),
                        "integer slots cannot be log10 scaled"),
    "log10-fc-slot": (dict(fc_slot=SlotSpec(16, 1024, log10=True)), "integer slots cannot be log10 scaled"),
    "log10-batch-size": (
        dict(scalar_slots=tuple(SlotSpec(16, 512, log10=True) if name == "batch_size" else spec
                                for name, spec in zip(SCALAR_FIELDS, default_bounds().scalar_slots))),
        "integer slots cannot be log10 scaled"),
}


@pytest.mark.parametrize("changes,message", list(REFUSED_BOUNDS.values()), ids=list(REFUSED_BOUNDS))
def test_space_bounds_refuses(bounds, changes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(bounds, **changes)


def test_make_config_refuses_an_unknown_scalar():
    with pytest.raises(ValueError, match=re.escape("unknown scalar fields: ['lerning_rate']")):
        make_config((), (), lerning_rate=0.1)


class TestConfigurationOwnsTheStockScalars:
    def test_layers_alone_take_the_stock_scalars(self):
        p1 = preset_config("p1")
        config = Configuration(p1.conv_layers, p1.fc_sizes)
        assert config == make_config(p1.conv_layers, p1.fc_sizes) == p1
        assert config.optimizer == "sgd"
        assert [getattr(config, name) for name in SCALAR_FIELDS] == [0.01, 128, 0.2, 1e-5, 0.9, 0.5, 2.0, 0.05, 1.0]
        assert isinstance(config.batch_size, int)

    def test_conv_fields_are_the_layer_fields(self):
        assert CONV_FIELDS == ("out_channels", "kernel_size", "stride", "padding", "pooling")

    def test_integer_scalars_are_read_from_the_annotations(self):
        config = make_config((), (), batch_size=64.0)
        assert type(config.batch_size) is int and config.batch_size == 64
        assert deserialize(config.key) == config
        with pytest.raises(ValueError):
            deserialize(config.key.replace("batch_size=64", "batch_size=64.0"))

    @pytest.mark.parametrize("zero", [0, np.int64(0)], ids=["int", "numpy-int"])
    def test_a_float_scalar_given_an_integer_writes_the_key_it_reads_back(self, zero):
        # the key seeds the simulated noise, so equal configurations need equal keys
        p1 = preset_config("p1")
        config = make_config(p1.conv_layers, p1.fc_sizes, dropout=zero)
        assert type(config.dropout) is float and " dropout=0.0 " in config.key
        assert deserialize(config.key).key == config.key
        model_for = SimulatedBlackbox().model_for
        assert model_for(config, 3) == model_for(make_config(p1.conv_layers, p1.fc_sizes, dropout=0.0), 3)

    def test_scalar_fields_are_the_fields_after_the_optimizer(self):
        assert SCALAR_FIELDS == (
            "learning_rate", "batch_size", "dropout", "weight_decay", "momentum", "lr_decay", "grad_clip",
            "label_smoothing", "epoch_scale",
        )
        names = [f.name for f in fields(Configuration)]
        assert names == ["conv_layers", "fc_sizes", "optimizer", *SCALAR_FIELDS]

    def test_numpy_values_write_the_same_key(self):
        # a mesh step hands over numpy scalars; the text must not show it
        p1 = preset_config("p1")
        layer = ConvLayerHP(*map(np.int64, (16, 5, 1, 2, 2)))
        scalars = {name: np.float64(getattr(p1, name)) for name in SCALAR_FIELDS if name != "batch_size"}
        config = make_config((layer,), map(np.int64, p1.fc_sizes), batch_size=np.int64(128), **scalars)
        assert type(config.conv_layers[0].kernel_size) is np.int64
        assert type(config.dropout) is np.float64
        assert config.key == p1.key == _P1_TEXT

    def test_a_bool_is_not_a_slot_value(self):
        with pytest.raises(TypeError, match="bool is not a slot value"):
            make_config((), (), momentum=True).key

    @pytest.mark.parametrize("fc_sizes, scalars, error, message", [
        ((), dict(batch_size=True), TypeError, "batch_size: bool is not a slot value"),
        ((), dict(batch_size=np.True_), TypeError, "batch_size: bool is not a slot value"),
        ((), dict(batch_size=128.5), ValueError, "batch_size=128.5 is not an integer"),
        ((), dict(batch_size=float("nan")), ValueError, "batch_size=nan is not an integer"),
        ((128.7, 64), {}, ValueError, "fc0=128.7 is not an integer"),
        ((128, False), {}, TypeError, "fc1: bool is not a slot value"),
    ], ids=["bool-batch", "numpy-bool-batch", "fractional-batch", "nan-batch", "fractional-fc", "bool-fc"])
    def test_an_integer_slot_refuses_a_bool_or_a_fraction(self, fc_sizes, scalars, error, message):
        # coercing would silently train another configuration: True as 1, 128.5 as 128
        with pytest.raises(error, match=re.escape(message)):
            make_config((), fc_sizes, **scalars)

    def test_serialize_spells_each_slot_by_its_type(self):
        p1 = preset_config("p1")
        # equal configurations write one key, whatever number types their slots hold
        assert replace(p1, dropout=0) == replace(p1, dropout=0.0)
        zero_dropout = _P1_TEXT.replace("dropout=0.2", "dropout=0.0")
        assert replace(p1, dropout=0).key == replace(p1, dropout=0.0).key == zero_dropout
        assert replace(p1, fc_sizes=(128.0, 64)).key == _P1_TEXT
        assert deserialize(replace(p1, dropout=0).key) == replace(p1, dropout=0.0)
        with pytest.raises(ValueError, match=re.escape("batch_size=100.5 is not an integer")):
            serialize(replace(p1, batch_size=100.5))
        with pytest.raises(TypeError, match="fc0: bool is not a slot value"):
            serialize(replace(p1, fc_sizes=(True, 64)))


class TestConfigurationOwnsDerivedValues:
    def test_key_and_counts_are_not_fields(self):
        config = preset_config("p1")
        fresh = preset_config("p1")
        assert config.key == serialize(config)
        assert {"key", "n_conv", "n_fc"}.isdisjoint(f.name for f in fields(config))
        assert config == fresh and hash(config) == hash(fresh) and repr(config) == repr(fresh)
        assert "key" in vars(config) and "key" not in vars(fresh)

    def test_replace_computes_a_new_key(self):
        config = preset_config("p1")
        old = config.key
        changed = replace(config, dropout=0.4)
        assert changed.key == serialize(changed) != old
        assert config.key == old

    def test_counts_follow_the_layer_tuples(self, bounds):
        config = preset_config("p2")
        outputs = [
            deserialize(serialize(config)),
            with_vector(config, bounds, to_vector(config, bounds)),
            *neighbors(config, bounds),
        ]
        for out in outputs:
            assert out.n_conv == len(out.conv_layers)
            assert out.n_fc == len(out.fc_sizes)
        assert [out.n_conv for out in outputs] == [2, 2, 3, 1, 2, 2, 2]
        assert [out.n_fc for out in outputs] == [2, 2, 2, 2, 3, 1, 2]


@pytest.fixture
def serialize_calls(monkeypatch):
    """Count calls of serialize through every module that binds the name."""
    calls = []
    original = space.serialize

    def counting(config):
        calls.append(config)
        return original(config)

    for module in (space, mads, blackbox, campaign):
        monkeypatch.setattr(module, "serialize", counting)
    return calls


class TestSerializeCalls:
    def test_trainer_reuses_the_key(self, serialize_calls):
        config = preset_config("p3")
        key = config.key
        assert serialize_calls == [config]
        trainer = SimulatedBlackbox()
        trainer.evaluate(EvaluationRequest(config, 30, 1.0, 2))
        trainer.final_accuracy(config, 2, 30, 0.1)
        assert trainer.model_for(config, 2).noise_seed == hash_u64("noise", key, 2)
        assert serialize_calls == [config]

    @pytest.mark.parametrize("preset,index,seed", [("p1", 0, 42), ("p3", -3, 7)])
    def test_poll_serializes_each_candidate_once(self, bounds, serialize_calls, preset, index, seed):
        incumbent = preset_config(preset)
        poll = generate_poll(incumbent, Mesh(index), seed, bounds)
        # every configuration built is serialized once, including any the
        # dedup drops, so these polls are ones in which nothing is dropped
        assert len(serialize_calls) == len(poll.candidates) + 1
        assert serialize_calls[0] is incumbent
        assert list(poll.candidates) == serialize_calls[1:]


def _random_config(rng, bounds, clip=True):
    def draw(spec, integer=True):
        # a slot holds an integer unless it fills a float trainer scalar
        if integer:
            lo, hi = int(spec.lower), int(spec.upper)
            value = int(rng.integers(lo, hi + 1))
        elif spec.log10:
            value = 10.0 ** rng.uniform(np.log10(spec.lower), np.log10(spec.upper))
        else:
            value = float(rng.uniform(spec.lower, spec.upper))
        if not clip and not integer and rng.random() < 0.2:
            value = value * 1.5  # occasionally out of bounds, projection must fix
        return value

    n_conv = int(rng.integers(bounds.n_conv_range[0], min(bounds.n_conv_range[1], 3) + 1))
    n_fc = int(rng.integers(bounds.n_fc_range[0], min(bounds.n_fc_range[1], 3) + 1))
    layers = tuple(
        ConvLayerHP(**{f: draw(s) for f, s in zip(CONV_FIELDS, bounds.conv_slots)})
        for _ in range(n_conv)
    )
    fcs = tuple(draw(bounds.fc_slot) for _ in range(n_fc))
    scalars = {f: draw(s, f not in space._FLOAT_SCALARS) for f, s in zip(SCALAR_FIELDS, bounds.scalar_slots)}
    return make_config(
        layers,
        fcs,
        optimizer=bounds.optimizers[rng.integers(0, len(bounds.optimizers))],
        **scalars,
    )


def test_vector_round_trip(bounds):
    config = preset_config("p2")
    vec = to_vector(config, bounds)
    slots = quantitative_slots(bounds, config.n_conv, config.n_fc)
    assert len(vec) == len(slots) == 5 * 2 + 2 + 9
    assert slots[0].name == "conv0.out_channels"
    assert slots[-1].name == "epoch_scale"


class TestSlotLayout:
    def test_built_once_per_bounds_and_size(self, bounds):
        layout = slot_layout(bounds, 2, 1)
        assert slot_layout(bounds, 2, 1) is layout
        assert quantitative_slots(bounds, 2, 1) is layout.slots
        assert [layout.slots[i].name for i in layout.log10_positions] == [
            "learning_rate", "weight_decay", "grad_clip"
        ]
        assert np.array_equal(layout.lowers, [s.spec.internal_lower for s in layout.slots])
        assert np.array_equal(layout.uppers, [s.spec.internal_upper for s in layout.slots])

    def test_cache_is_not_part_of_equality_and_stays_bounded(self):
        used, fresh = default_bounds(), default_bounds()
        for n_conv in range(40):
            for n_fc in range(10):
                slot_layout(used, n_conv, n_fc)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert len(used._layouts) <= 256

    def test_with_vector_accepts_list_or_array(self, bounds):
        config = preset_config("p3")
        vec = to_vector(config, bounds)
        assert with_vector(config, bounds, vec) == with_vector(config, bounds, vec.tolist()) == config
        with pytest.raises(ValueError):
            with_vector(config, bounds, vec[:-1])
