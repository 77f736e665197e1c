"""Errors shared by the engines and the front ends."""


class ResourceLimitExceeded(Exception):
    """A question could not be answered within a fixed budget: the tableau's
    rule or label budget with an empty bounded fallback, or the exhaustive
    engines' work budget, bitgrid.MAX_WORK.  The command line maps it to
    exit code 3."""
