"""``python -m sqzopo``: the command-line interface."""

from .cli import run

run()
