"""Developmental reinforcement-learning control stack for multirotor UAVs:
tilt-rotor rigid-body simulation, PPO policy training, staged policy
transfer with frozen layers, and evaluation protocols."""

__version__ = "0.1.0"

from .dynamics import SimParams
from .env import EpisodeConfig, HoverEnv, Platform, RewardWeights
from .neuralnet import AdamState, Mlp
from .ppo import RolloutBuffer, TrainConfig
