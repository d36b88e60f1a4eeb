"""raylift: stable inversion of intensity (phaseless) measurements.

Metrics on the ray space of a finite-dimensional Hilbert space, the spectral
retraction onto rank-one PSD operators, a constructive Lipschitz left inverse
of the intensity measurement map, and estimators that certify the stability
constants at desk scale.

The package exports ``__version__`` and the names in its modules' ``__all__``
lists, where each public name is declared once. The function ``recover``
shadows the module of that name as a package attribute.
"""

from . import core, frames, metrics, probes, recover, retraction

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += core.__all__
__all__ += frames.__all__
__all__ += metrics.__all__
__all__ += probes.__all__
__all__ += recover.__all__
__all__ += retraction.__all__

from .core import *  # noqa: E402, F403
from .frames import *  # noqa: E402, F403
from .metrics import *  # noqa: E402, F403
from .probes import *  # noqa: E402, F403
from .recover import *  # noqa: E402, F403
from .retraction import *  # noqa: E402, F403
