"""Exact reachability analysis for discrete-time Markov chains.

The package collapses chosen state subsets into direct border transitions
that carry the exact probability mass of all routes through the subset
(all arithmetic is over arbitrary-precision rationals), and builds model
checking, threshold refinement with witnesses, and a small text-format CLI
on top of that single operation.  Everything beyond the names below lives
in its module: ``pathfold.cli`` (``parse``, ``serialize``), ``pathfold.scc``
(the component strategies) and ``pathfold.checker`` (witness search and
concretization).  The package holds only what the library and CLI use; the
word-level oracle the exact route is tested against lives with the tests.
"""

from .abstraction import path_abstract
from .checker import model_check, refine
from .core import Dtmc, DtmcError

__version__ = "0.1.0"

__all__ = ["Dtmc", "DtmcError", "model_check", "path_abstract", "refine"]
