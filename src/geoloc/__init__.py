"""Grid-partitioned classification training and retrieval evaluation for geo-localization."""

__version__ = "0.1.0"
