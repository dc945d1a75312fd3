class Signal:
    pass
