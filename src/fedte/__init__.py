"""Deterministic federated-learning simulator with ensemble constraint targets.

`fedte run` and `fedte compare` (`fedte.cli`) are the supported entry points;
the submodules are imported by name.
"""

__version__ = "0.1.0"
