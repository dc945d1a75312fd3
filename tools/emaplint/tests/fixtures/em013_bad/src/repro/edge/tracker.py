"""Imported by nothing at all: flagged."""


def track():
    return None
