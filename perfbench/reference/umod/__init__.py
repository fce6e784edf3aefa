"""Urban metro origin-destination flow forecasting toolkit."""

__version__ = "0.1.0"
