"""Geodesic slice sampling on built-in Riemannian manifolds.

The package bundles the sampler itself (``kernel``), the geometry it runs on
(``manifolds``), target densities with exact reference samplers (``targets``),
the 1-D stepping-out / shrinkage machinery (``slice1d``), explicit
uniform-ergodicity certificates (``bounds``), and a statistical verification
harness (``harness``).  ``cli`` exposes everything as the ``geoslice``
command.
"""

__version__ = "0.1.0"

from . import bounds, harness, kernel, manifolds, slice1d, targets  # noqa: E402,F401
from .bounds import BoundsReport, full_report, optimal_hyperparameters  # noqa: F401
from .kernel import GssConfig, endpoint_ensemble, run_chain  # noqa: F401
from .manifolds import Manifold, Point  # noqa: F401
from .targets import Target  # noqa: F401
