"""Optimization-based interface coupling of advection-diffusion subdomain models.

The package solves a transient advection-diffusion problem on a rectangle split
into two non-overlapping subdomains. At every timestep the interface flux
control is found by adaptive gradient descent on a trace-mismatch objective,
with each subdomain advanced by either the full finite element model or a POD
reduced-order model. Adjoint snapshot collection (including the per-timestep
modified-gradient variant) feeds the reduced adjoint bases.
"""

from obcoupling import (assembly, bench, coupling, errors, fom, geometry, linalg, rom,
                        snapshots)

__all__ = [
    "assembly",
    "bench",
    "coupling",
    "errors",
    "fom",
    "geometry",
    "linalg",
    "rom",
    "snapshots",
]

__version__ = "0.1.0"
