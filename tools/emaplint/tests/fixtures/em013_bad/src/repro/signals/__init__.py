"""Re-exports: only ``make_signal`` is used by an entry point."""

from repro.signals.generator import make_signal
from repro.signals.legacy import assess

__all__ = ["assess", "make_signal"]
