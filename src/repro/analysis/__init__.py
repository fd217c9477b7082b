"""Analysis helpers: standard setups and per-figure data extraction."""

from .experiments import (
    run_standard_experiment,
    standard_configs,
    standard_rl_workload,
    standard_sl_workload,
    standard_spec,
)
from .render import histogram, line_chart, sparkline
from .report import render_report, report_from_json
from .figures import (
    InstrumentedPOPPolicy,
    SuspendStats,
    config_curves,
    final_metric_cdf,
    find_overtake_pair,
    job_duration_cdf,
    prediction_with_confidence,
    promising_ratio_timeline,
    suspend_overhead_stats,
    time_to_target_stats,
)

__all__ = [
    "run_standard_experiment",
    "standard_configs",
    "standard_rl_workload",
    "standard_sl_workload",
    "standard_spec",
    "InstrumentedPOPPolicy",
    "SuspendStats",
    "config_curves",
    "final_metric_cdf",
    "find_overtake_pair",
    "job_duration_cdf",
    "prediction_with_confidence",
    "promising_ratio_timeline",
    "suspend_overhead_stats",
    "time_to_target_stats",
    "sparkline",
    "line_chart",
    "histogram",
    "render_report",
    "report_from_json",
]
