"""Datasets: instance containers, synthetic generators, real-data substitutes.

The paper evaluates on the three classic preference-query benchmarks
(independent / correlated / anti-correlated object sets, per Börzsönyi
et al. [4]), on normalized linear preference functions with
independently drawn weights (optionally clustered, Figure 12), and on
two real datasets (Zillow, NBA) for which
:mod:`repro.data.real` provides behaviour-preserving synthetic
substitutes (see :mod:`repro.data.real` for the rationale).
"""

from repro.data.generators import (
    CohortRequest,
    anti_correlated_points,
    churn_stream,
    clustered_weights,
    correlated_points,
    independent_points,
    make_functions,
    make_objects,
    request_stream,
    uniform_weights,
    zipf_probabilities,
)
from repro.data.instances import FunctionSet, ObjectSet, object_set_fingerprint
from repro.data.real import nba_like, zillow_like

__all__ = [
    "CohortRequest",
    "FunctionSet",
    "ObjectSet",
    "anti_correlated_points",
    "churn_stream",
    "clustered_weights",
    "correlated_points",
    "independent_points",
    "make_functions",
    "make_objects",
    "nba_like",
    "object_set_fingerprint",
    "request_stream",
    "uniform_weights",
    "zillow_like",
    "zipf_probabilities",
]
