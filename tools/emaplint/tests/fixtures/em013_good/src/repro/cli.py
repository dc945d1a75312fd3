from repro import obs
from repro.signals import make_signal


def main():
    obs.enable()
    return make_signal()
