"""Exception types shared across the simulator."""

import argparse


class ConfigurationError(ValueError, argparse.ArgumentTypeError):
    """A user-supplied setting is missing, unknown, or out of range.

    Also an ArgumentTypeError, so argparse reports a flag type's reason as is.
    """


class StageError(RuntimeError):
    """Failure inside one stage of the link chain, tagged with the stage name."""

    def __init__(self, stage, message):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
