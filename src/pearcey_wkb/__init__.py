"""Symbolic-numeric toolkit for the exact WKB analysis of the Pearcey system."""

__version__ = "0.1.0"
