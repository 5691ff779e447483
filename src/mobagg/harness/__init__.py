"""Simulation harness: synthetic data, protocol rounds, pipeline, CLI."""

from .pipeline import (
    PipelineConfig,
    PipelineResult,
    analyze_aggregates,
    collect_aggregate_series,
    run_pipeline,
    write_enhancement_report,
)
from .reports import (
    OverheadRow,
    format_overhead_table,
    overhead_report,
    write_overhead_csv,
    write_round_reports,
)
from .simulate import (
    GroupReport,
    MODES,
    OracleMismatch,
    RoundOutcome,
    RoundReport,
    SimConfig,
    setup_users,
    simulate_round,
    synthesize_users,
)
from .synth import ar1_noise, commuter_pattern, synthetic_counts
from .transport import DOWNLOAD, UPLOAD, InProcessTransport, TcpLoopbackTransport

__all__ = [
    "DOWNLOAD",
    "GroupReport",
    "InProcessTransport",
    "MODES",
    "OracleMismatch",
    "OverheadRow",
    "PipelineConfig",
    "PipelineResult",
    "RoundOutcome",
    "RoundReport",
    "SimConfig",
    "TcpLoopbackTransport",
    "UPLOAD",
    "analyze_aggregates",
    "ar1_noise",
    "collect_aggregate_series",
    "commuter_pattern",
    "format_overhead_table",
    "overhead_report",
    "run_pipeline",
    "setup_users",
    "simulate_round",
    "synthesize_users",
    "synthetic_counts",
    "write_enhancement_report",
    "write_overhead_csv",
    "write_round_reports",
]
