"""Exceptions shared across the package."""

from __future__ import annotations


class InputError(ValueError):
    """A value supplied by the caller is unusable: a grid level, a timestep,
    a mode count, a snapshot store. Raised at the package's input checks, so
    a front end can report it as bad input and let any other error surface
    as a fault."""
