"""Errors shared by the engines and the front ends."""


class ResourceLimitExceeded(Exception):
    """A question could not be answered within a fixed budget: the tableau's
    rule or label budget with an empty bounded fallback, the exhaustive
    engines' work budget (bitgrid.MAX_WORK), or a slab whose masks would
    pass bitgrid.MAX_PATTERN_BYTES.  The command line maps it to exit
    code 3."""
