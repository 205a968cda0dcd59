"""Dual-hop UAV relay: mmWave channels, hybrid beamforming, swarm placement,
and a learned surrogate for the joint decision."""

from .geometry import (AngularSupport, Box, DegenerateGeometry, OutOfBox,
                       Position3D, Scenario, dbm_to_mw, distances,
                       noise_power)
from .channel import ChannelPair, PathSet
from .beamforming import (EmptySupport, HbfStages, OverlappingSupports,
                          QuantizedPair, RankDeficient, SingularSystem)
from .rates import AllZeroAlloc, NumericalFailure, PowerAlloc, RateReport
from .links import Realization, make_realization
from .pso import GridResult, PsoConfig, SolveResult
from .relay import BufferPolicy, ZeroRate, little_delay
from .learn import (DegenerateInput, MlpModel, NonfiniteLoss, ShapeMismatch,
                    TrainConfig)
from .harness import ExperimentSpec, ResultRow

__version__ = "0.1.0"
