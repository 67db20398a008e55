"""Desk-scale laboratory for planning with learned latent world models."""

__version__ = "0.1.0"
