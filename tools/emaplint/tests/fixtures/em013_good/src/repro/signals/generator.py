from repro.signals.types import Signal


def make_signal():
    return Signal()
