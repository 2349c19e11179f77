"""hopqg: hop-controlled multi-hop question generation and evaluation."""

__version__ = "0.1.0"
