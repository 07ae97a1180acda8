"""CAAI: the paper's primary contribution.

The three steps of CAAI (Section III-C):

1. Trace gathering (:mod:`repro.core.gather`, :mod:`repro.core.prober`) --
   gather TCP window traces of a Web server in the two emulated network
   environments A and B.
2. Feature extraction (:mod:`repro.core.features`) -- extract the
   multiplicative decrease parameter and window growth features.
3. Algorithm classification (:mod:`repro.core.classifier`) -- identify the
   TCP algorithm with a random forest trained on testbed feature vectors.

:mod:`repro.core.training` builds the training set, :mod:`repro.core.census`
runs the Internet-measurement campaign against the synthetic population.
"""

from repro.core.census import CensusConfig, CensusRunner
from repro.core.classifier import CaaiClassifier, Identification
from repro.core.environments import (
    ENVIRONMENT_A,
    ENVIRONMENT_B,
    NetworkEnvironment,
    W_TIMEOUT_LADDER,
)
from repro.core.features import FeatureExtractor, FeatureVector
from repro.core.gather import GatherConfig, SyntheticServer, TraceGatherer
from repro.core.prober import CaaiProber, ProberConfig
from repro.core.results import CensusReport, ServerOutcome
from repro.core.special_cases import SpecialCase, detect_special_case
from repro.core.trace import InvalidReason, ProbeTrace, WindowTrace
from repro.core.training import TrainingSetBuilder

__all__ = [
    "CaaiClassifier",
    "CaaiProber",
    "CensusConfig",
    "CensusReport",
    "CensusRunner",
    "ENVIRONMENT_A",
    "ENVIRONMENT_B",
    "FeatureExtractor",
    "FeatureVector",
    "GatherConfig",
    "Identification",
    "InvalidReason",
    "NetworkEnvironment",
    "ProbeTrace",
    "ProberConfig",
    "ServerOutcome",
    "SpecialCase",
    "SyntheticServer",
    "TraceGatherer",
    "TrainingSetBuilder",
    "W_TIMEOUT_LADDER",
    "WindowTrace",
    "detect_special_case",
]
