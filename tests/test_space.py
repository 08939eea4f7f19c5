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

    def test_invalid_input_rejected(self, bounds):
        bad = make_config((), (), dropout=1.5)
        with pytest.raises(ValueError):
            neighbors(bad, bounds)


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
        assert [c.config for c in poll.candidates] == serialize_calls[1:]


def _random_config(rng, bounds, clip=True):
    def draw(spec):
        if spec.integer:
            lo, hi = int(spec.lower), int(spec.upper)
            value = int(rng.integers(lo, hi + 1))
        elif spec.log10:
            value = 10.0 ** rng.uniform(np.log10(spec.lower), np.log10(spec.upper))
        else:
            value = float(rng.uniform(spec.lower, spec.upper))
        if not clip and not spec.integer and rng.random() < 0.2:
            value = value * 1.5  # occasionally out of bounds, projection must fix
        return value

    n_conv = int(rng.integers(bounds.n_conv_range[0], min(bounds.n_conv_range[1], 3) + 1))
    n_fc = int(rng.integers(bounds.n_fc_range[0], min(bounds.n_fc_range[1], 3) + 1))
    layers = tuple(
        ConvLayerHP(**{f: draw(s) for f, s in zip(CONV_FIELDS, bounds.conv_slots)})
        for _ in range(n_conv)
    )
    fcs = tuple(draw(bounds.fc_slot) for _ in range(n_fc))
    scalars = {f: draw(s) for f, s in zip(SCALAR_FIELDS, bounds.scalar_slots)}
    scalars["batch_size"] = int(scalars["batch_size"])
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
