"""Curriculum pacing for chain-of-thought distillation."""

__version__ = "0.1.0"
