"""Desk-scale laboratory for planning with learned latent world models."""

__version__ = "0.1.0"

from .diffcore import AdamState, NumericFailure, Tape, adam_step, grad, sgd_step
from .encoder import Encoder, encode, make_identity, make_random_fourier
from .envs import EnvSpec, EnvState, TaskInstance, pointmass_spec, step, wall2d_spec
from .planners import (CemConfig, MpcConfig, MppiConfig, PlanConfig, PlanResult,
                       RefineConfig, cem, gbp, mpc, mppi)
from .worldmodel import WorldModel, init_world_model, predict, rollout_model
