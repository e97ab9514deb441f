"""specbound: dimension bounds for circle measures with restricted spectrum."""

__version__ = "0.1.0"
