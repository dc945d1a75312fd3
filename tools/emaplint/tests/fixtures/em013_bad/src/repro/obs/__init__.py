"""Named whole by the CLI (``from repro import obs``): every module runs."""

from repro.obs.metrics import counter


def enable():
    return counter()
