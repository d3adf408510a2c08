"""Exact tools for generating functions of Poincare polynomials of
affine Laumon spaces: fixed-point localization, closed product forms,
and refined W-algebra characters, all over truncated integer series."""

__version__ = "0.1.0"
