"""Panel regression estimation and inference under cross-sectional dependence.

The package covers the full workflow: balanced-panel containers and CSV
loading (`panel`), within and pooled estimators with their period weight blocks
(`estimators`), dependence norms, regime classification, factor splitting and
fourth-moment diagnostics (`dependence`), covariance requests, robust
covariance estimators and exact finite-sample variance targets
(`covariance`), Wald tests with a small restriction grammar (`inference`),
synthetic cross-sectional covariance families and panel generators (`dgp`),
and deterministic multi-process Monte Carlo drivers (`montecarlo`).

Each of those modules, and `errors`, lists its public names in its own
``__all__``; the package exports every one of them, and nothing else.
"""

from . import (covariance, dependence, dgp, errors, estimators, inference,
               montecarlo, panel)
from .covariance import *  # noqa: F401,F403
from .dependence import *  # noqa: F401,F403
from .dgp import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .inference import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .panel import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted({name for module in (covariance, dependence, dgp, errors,
                                      estimators, inference, montecarlo, panel)
                  for name in module.__all__})
