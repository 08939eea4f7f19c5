"""Coarse-lattice oracle: a brute-force sweep of the simulated trainer.

Acceptance criterion 10 compares campaigns against its best point, and
``test_golden.py`` hashes that point for two seeds.  Only tests read it.
"""

import math

from madshpo.blackbox import EvaluationRequest, SimulatedBlackbox
from madshpo.space import Configuration, SpaceBounds, make_config, preset_config

LATTICE_LOG_LR = (-5.0, -4.0, -3.0, -2.0, -1.0)
LATTICE_DROPOUT = (0.1, 0.3, 0.6)
LATTICE_BATCH = (64, 128, 256)
LATTICE_LOG_WD = (-7.0, -5.0, -3.0)
LATTICE_MOMENTUM = (0.5, 0.8, 0.95)
LATTICE_ARCH = ((1, 1), (1, 2), (2, 2), (3, 1), (5, 1))

LATTICE_CONV = preset_config("p1").conv_layers[0]


def coarse_lattice(bounds: SpaceBounds):
    """Fixed coarse grid over the high-impact slots (other scalars at preset values)."""
    for n_conv, n_fc in LATTICE_ARCH:
        for optimizer in bounds.optimizers:
            for log_lr in LATTICE_LOG_LR:
                for dropout in LATTICE_DROPOUT:
                    for batch in LATTICE_BATCH:
                        for log_wd in LATTICE_LOG_WD:
                            for momentum in LATTICE_MOMENTUM:
                                yield make_config(
                                    (LATTICE_CONV,) * n_conv,
                                    (128, 64)[:n_fc],
                                    optimizer=optimizer,
                                    learning_rate=10.0**log_lr,
                                    dropout=dropout,
                                    batch_size=batch,
                                    weight_decay=10.0**log_wd,
                                    momentum=momentum,
                                )


def lattice_sweep(
    blackbox: SimulatedBlackbox,
    bounds: SpaceBounds,
    seed: int,
    max_epochs: int = EvaluationRequest.max_epochs,
) -> tuple[Configuration, float]:
    """Brute-force best (config, accuracy) over the coarse lattice."""
    best_config = None
    best_score = -math.inf
    for config in coarse_lattice(bounds):
        score = blackbox.final_accuracy(config, seed, max_epochs, 1.0)
        if score > best_score:
            best_config, best_score = config, score
    assert best_config is not None
    return best_config, best_score
