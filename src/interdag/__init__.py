"""Structure learning for linear Gaussian causal models from mixed
observational and interventional data.

The package covers the full pipeline: model representation and sampling
(:mod:`interdag.model`), exact likelihood evaluation and per-vertex scoring
(:mod:`interdag.likelihood`), interventional Markov equivalence and essential
graphs (:mod:`interdag.equivalence`), greedy and exact structure search
(:mod:`interdag.search`), structural accuracy metrics (:mod:`interdag.metrics`),
and seeded replicate experiments plus a command line (:mod:`interdag.cli`).

The public names are those of each module's ``__all__``.
"""

from . import equivalence, errors, experiments, likelihood, metrics, model, search
from .equivalence import *
from .errors import *
from .experiments import *
from .likelihood import *
from .metrics import *
from .model import *
from .search import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += errors.__all__
__all__ += model.__all__
__all__ += likelihood.__all__
__all__ += equivalence.__all__
__all__ += search.__all__
__all__ += metrics.__all__
__all__ += experiments.__all__
