"""Workload generators: input vectors and end-to-end scenarios.

:mod:`.vectors` samples input vectors inside, on the boundary of and outside
a condition.  :mod:`.scenarios` packages the paper's regimes as ready-made
stories: one frozen :class:`Scenario` type, built by seven factories, runs,
batches and model-checks a story on the backend of its check space.
"""

from .._lazy import lazy_exports

__all__ = [
    "Scenario",
    "async_scenario",
    "boundary_vector",
    "condition_family_scenario",
    "degraded_path_scenario",
    "exhaustive_scenario",
    "fast_path_scenario",
    "net_scenario",
    "outside_condition_scenario",
    "random_vector",
    "skewed_vector",
    "unanimous_vector",
    "vector_in_condition",
    "vector_in_max_condition",
    "vector_outside_condition",
    "vector_outside_max_condition",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".scenarios": (
            "Scenario",
            "async_scenario",
            "condition_family_scenario",
            "degraded_path_scenario",
            "exhaustive_scenario",
            "fast_path_scenario",
            "net_scenario",
            "outside_condition_scenario",
        ),
        ".vectors": (
            "boundary_vector",
            "random_vector",
            "skewed_vector",
            "unanimous_vector",
            "vector_in_condition",
            "vector_in_max_condition",
            "vector_outside_condition",
            "vector_outside_max_condition",
        ),
    },
)
