"""Dirichlet-form laboratory on a tree-like self-affine fractal."""

__version__ = "0.1.0"
