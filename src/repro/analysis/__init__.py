"""Reporting helpers and first-order comparison models."""

from .alternatives import Alternative, compare_alternatives
from .charts import line_chart
from .replication import ReplicationSummary, replicate
from .tables import banner, format_table

__all__ = ["format_table", "banner", "line_chart", "Alternative",
           "compare_alternatives", "ReplicationSummary", "replicate"]
