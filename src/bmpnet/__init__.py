"""Tensor networks over the Bhattacharya-Mesner product, with gradient
training and exact verification of fast matrix-multiplication schemes."""

__version__ = "0.1.0"
