"""A paper experiment: an entry point of its own."""

import repro.edge.tracker


def run():
    return repro.edge.tracker.track()
