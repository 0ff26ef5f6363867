"""Anomaly detection toolkit for object-centric event logs (OCEL 2.0)."""

__version__ = "0.1.0"
