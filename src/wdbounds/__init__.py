"""Certified Wasserstein-distance error bounds for aggregated Markov chains.

The package computes exact Wasserstein-1 distances on finite metric spaces,
coarse Ricci curvature of continuous- and discrete-time Markov chains, and
certified bounds on the error introduced by aggregating a chain onto a
smaller state space.
"""

from __future__ import annotations

from . import aggregation, bounds, curvature, errors, lp, markov, metric, models, transport
from .aggregation import *  # noqa: F403 (each module's __all__ is its one list of names)
from .bounds import *  # noqa: F403
from .curvature import *  # noqa: F403
from .errors import *  # noqa: F403
from .lp import *  # noqa: F403
from .markov import *  # noqa: F403
from .metric import *  # noqa: F403
from .models import *  # noqa: F403
from .transport import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(
        name
        for module in (metric, markov, lp, transport, curvature, aggregation, bounds, models, errors)
        for name in module.__all__
    ),
]
