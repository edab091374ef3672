"""Packed batch execution core (stdlib-only bitmask columns).

``repro.vec`` packs blocks of input vectors into per-(position, value) lane
masks (:class:`PackedBlock`) and executes whole ``schedule × block`` batches
through the synchronous round model in one call
(:class:`BatchSyncEvaluator`, whose round driver caches transitions over
interned :class:`LaneStates`).  The scalar object runtime in
:mod:`repro.sync.runtime` remains the untouched reference implementation;
everything here is an optimisation with a mandatory decode-back path.
"""

from .._lazy import lazy_exports

__all__ = [
    "BatchSyncEvaluator",
    "LaneStates",
    "PackedBlock",
    "count_exceeds",
    "exact_counts",
    "max_value_masks",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".evaluator": ("BatchSyncEvaluator", "LaneStates"),
        ".packed": ("PackedBlock", "count_exceeds", "exact_counts", "max_value_masks"),
    },
)
