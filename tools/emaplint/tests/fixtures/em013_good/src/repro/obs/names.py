"""The metric registry: read by lint, imported by no one, exempt."""

METRIC_NAMES = {}
