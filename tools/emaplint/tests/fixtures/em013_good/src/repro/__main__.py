"""EM013 good twin: ``python -m repro`` reaches the CLI."""

from repro.cli import main

main()
