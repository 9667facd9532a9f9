"""Distributional term representations for author profiling.

Two-stage pipeline: build one vector per vocabulary term from occurrence,
co-occurrence, subprofile, or embedding statistics; aggregate term vectors
into per-author document vectors; classify with a linear SVM; evaluate with
leakage-safe stratified cross-validation, paired significance tests, and
collection-characteristic analysis.
"""

from . import classifier, corpus, embeddings, evaluation, representations, stopwords, synthetic
from .classifier import *  # noqa: F401,F403
from .corpus import *  # noqa: F401,F403
from .embeddings import *  # noqa: F401,F403
from .evaluation import *  # noqa: F401,F403
from .representations import *  # noqa: F401,F403
from .stopwords import *  # noqa: F401,F403
from .synthetic import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (corpus, representations, embeddings, classifier, evaluation, stopwords, synthetic)

__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
