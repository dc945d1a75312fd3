"""EM013 bad twin: the entry point."""

from repro import obs
from repro.signals import make_signal


def main():
    obs.enable()
    return make_signal()
