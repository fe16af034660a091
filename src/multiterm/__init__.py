"""Rate-distortion region algebra and constrained-random-number-generator
codes for multi-terminal source coding."""

__version__ = "0.2.0"
