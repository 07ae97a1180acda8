"""Reproduction of "TCP Congestion Avoidance Algorithm Identification" (CAAI).

Peng Yang, Juan Shao, Wen Luo, Lisong Xu, Jitender Deogun, Ying Lu.
ICDCS 2011 / IEEE-ACM Transactions on Networking 22(4), 2014.

The package is organised as the paper's system plus every substrate it relies
on:

* :mod:`repro.core` -- CAAI itself: trace gathering in the two emulated
  network environments, feature extraction, random-forest classification, the
  training-set builder and the Internet census.
* :mod:`repro.tcp` -- the TCP sender substrate with from-scratch
  implementations of all congestion avoidance algorithms of Table I.
* :mod:`repro.net` -- the discrete-event simulator, netem-style links and the
  measured network-condition database.
* :mod:`repro.web` -- the Web substrate: HTTP pipelining, synthetic sites, the
  page-searching crawler and the synthetic server population.
* :mod:`repro.ml` -- the machine-learning substrate: decision trees, random
  forests, k-NN, naive Bayes and cross validation.
* :mod:`repro.analysis` -- CDFs, tables and figure series used by the
  reproduction report.

Quickstart::

    from repro.core import CaaiClassifier, TrainingSetBuilder, SyntheticServer
    from repro.core.gather import TraceGatherer, GatherConfig
    from repro.net.conditions import NetworkCondition
    from repro.tcp.connection import SenderConfig
    import numpy as np

    training = TrainingSetBuilder(conditions_per_pair=10).build_dataset()
    classifier = CaaiClassifier().train(training)

    server = SyntheticServer("cubic-b", lambda mss: SenderConfig(mss=mss))
    probe = TraceGatherer(GatherConfig(w_timeout=512, mss=100)).gather_probe(
        server, NetworkCondition.ideal(), np.random.default_rng(0))
    print(classifier.classify_probe(probe).label)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
