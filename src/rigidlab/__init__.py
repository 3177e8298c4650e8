"""rigidlab: a numerical laboratory for boundary rigidity of holomorphic maps.

Submodules
----------
domain     bounded domains in C^d and their Euclidean boundary geometry
kobayashi  exact model invariant metrics and certified two-sided bounds
cgeo       complex geodesics, Gromov products, boundary probes
schwarz    self-maps, displacement inequalities, the convex and disk pipeline
riemann    chart-based Riemannian engine and tangent-bundle estimates
kahler     bounded geometry, squeezing, volumes, thresholds
rigidity   end-to-end pipelines with machine verdicts
cli        command-line front end
"""

from .intervals import DistInterval

__version__ = "0.1.0"

__all__ = ["DistInterval", "__version__"]
