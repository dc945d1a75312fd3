"""Reached only through its package's re-export: flagged."""


def assess(signal):
    return bool(signal)
