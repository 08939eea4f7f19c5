"""Mesh adaptive direct search for mixed-variable hyperparameter optimization,
with static early-stopping and ranking surrogates."""

from .campaign import CampaignSettings, resume, run

__version__ = "0.1.0"
