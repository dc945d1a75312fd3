def counter():
    return 0
