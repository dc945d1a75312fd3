"""Imports a reached module, but nothing imports it: flagged."""

from repro.signals.generator import make_signal


def budget():
    return len(make_signal())
