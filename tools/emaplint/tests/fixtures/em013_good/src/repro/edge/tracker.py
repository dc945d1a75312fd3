def track():
    return None
