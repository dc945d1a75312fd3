from repro.obs.metrics import counter


def enable():
    return counter()
