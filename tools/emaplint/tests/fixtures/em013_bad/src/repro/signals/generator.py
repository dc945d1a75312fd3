def make_signal():
    return [0.0]
