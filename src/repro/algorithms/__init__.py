"""Agreement algorithms: the paper's contribution and the baselines it generalises.

* :class:`ConditionBasedKSetAgreement` — the generic synchronous algorithm of
  Figure 2 (the paper's main contribution);
* :class:`ConditionBasedConsensus` — its ``k = l = 1`` special case
  (Mostéfaoui–Rajsbaum–Raynal condition-based consensus);
* :class:`FloodMinKSetAgreement` — the classical ``⌊t/k⌋ + 1``-round baseline;
* :class:`FloodSetConsensus` — the classical ``t + 1``-round consensus
  baseline (with an optional early-stopping rule);
* :class:`EarlyDecidingKSetAgreement` — the ``min(⌊f/k⌋ + 2, ⌊t/k⌋ + 1)``
  early-deciding variant discussed in Section 8;
* :func:`run_async_condition_set_agreement` — the asynchronous shared-memory
  l-set agreement of Section 4.
"""

from .._lazy import lazy_exports

__all__ = [
    "AsyncConditionSetAgreementProcess",
    "ConditionBasedConsensus",
    "ConditionBasedKSetAgreement",
    "ConditionKSetProcess",
    "EarlyDecidingKSetAgreement",
    "EarlyDecidingProcess",
    "EarlyMessage",
    "FloodMinKSetAgreement",
    "FloodMinProcess",
    "FloodSetConsensus",
    "FloodSetProcess",
    "StateTriple",
    "run_async_condition_set_agreement",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".async_condition_set_agreement": (
            "AsyncConditionSetAgreementProcess",
            "run_async_condition_set_agreement",
        ),
        ".classic_consensus": ("FloodSetConsensus", "FloodSetProcess"),
        ".classic_kset": ("FloodMinKSetAgreement", "FloodMinProcess"),
        ".condition_consensus": ("ConditionBasedConsensus",),
        ".condition_kset": (
            "ConditionBasedKSetAgreement",
            "ConditionKSetProcess",
            "StateTriple",
        ),
        ".early_deciding_kset": (
            "EarlyDecidingKSetAgreement",
            "EarlyDecidingProcess",
            "EarlyMessage",
        ),
    },
)
