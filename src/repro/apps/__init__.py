"""End-to-end applications built on the framework."""

from repro.apps.storm import StormEngine

__all__ = ["StormEngine"]
