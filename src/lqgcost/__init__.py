"""lqgcost: exact mean and variance of exponentially weighted quadratic costs
of noisy linear systems, LQG gain synthesis, and a Monte Carlo cross-check.

The analytic statistics come by two routes: closed forms built from
Lyapunov-equation solutions (valid when the relevant shifted drifts have no
eigenvalue pair summing to zero), and the paper's block matrix exponential
on a short step, doubled up to the horizon (finite horizons, any drift).
:func:`auto_cost_stats` takes the second at a finite horizon and the first
at the infinite one.

Each module's ``__all__`` is the one declaration of its public names; the
package re-exports them all, and its ``__all__`` is their sorted union.
"""

from .cost_expm import *
from .cost_lyap import *
from .demo import *
from .exceptions import *
from .gaussian import *
from .linalg import *
from .lqg import *
from .models import *
from .moments import *
from .simulate import *
from .systems import *
from .tune import *

__version__ = "0.1.0"

# each import above also binds its submodule here, as importing a submodule does
__all__ = sorted(name for module in (cost_expm, cost_lyap, demo, exceptions, gaussian, linalg,
                                     lqg, models, moments, simulate, systems, tune)
                 for name in module.__all__)
