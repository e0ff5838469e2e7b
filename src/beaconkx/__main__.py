"""``python -m beaconkx``: the same command line as ``beaconkx``."""

from .cli import entrypoint

entrypoint()
