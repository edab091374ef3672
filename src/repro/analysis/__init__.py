"""Analysis: property checkers, round measurements and the experiment harness."""

from .._lazy import lazy_exports

__all__ = [
    "EXPERIMENTS",
    "ExperimentOutput",
    "PropertyReport",
    "RoundMeasurement",
    "adversarial_schedules",
    "assert_execution_correct",
    "check_agreement",
    "check_execution",
    "check_round_bound",
    "check_termination",
    "check_validity",
    "format_check",
    "format_table",
    "list_experiments",
    "measure_worst_rounds",
    "run_experiment",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".experiments": (
            "EXPERIMENTS",
            "ExperimentOutput",
            "list_experiments",
            "run_experiment",
        ),
        ".properties": (
            "PropertyReport",
            "assert_execution_correct",
            "check_agreement",
            "check_execution",
            "check_round_bound",
            "check_termination",
            "check_validity",
        ),
        ".rounds": (
            "RoundMeasurement",
            "adversarial_schedules",
            "measure_worst_rounds",
        ),
        ".tables": ("format_check", "format_table"),
    },
)
