"""Exact Laurent expansions of cluster variables from triangulated surfaces,
with a seed-mutation oracle for cross-validation."""

__version__ = "0.1.0"
