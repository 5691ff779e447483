"""Simulation harness: synthetic data, protocol rounds, pipeline, CLI."""
