from repro.signals.generator import make_signal

__all__ = ["make_signal"]
