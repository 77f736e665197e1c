"""Errors shared by the engines and the front ends."""


class ResourceLimitExceeded(Exception):
    """A question could not be answered within a fixed budget: the tableau's
    rule budget with an empty bounded fallback, or a slab too large to build.
    The command line maps it to exit code 3."""
