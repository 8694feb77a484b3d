"""Developmental reinforcement-learning control stack for multirotor UAVs:
tilt-rotor rigid-body simulation, PPO policy training, staged policy
transfer with frozen layers, and evaluation protocols."""
