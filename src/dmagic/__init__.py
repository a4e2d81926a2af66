"""Orientable distance magic labelings of graphs over the cyclic group Z_n.

A labeling assigns the residues 0..n-1 bijectively to the vertices; an
orientation turns each edge into an arc.  The weight of a vertex is the sum of
the labels on its in-neighbors minus the sum on its out-neighbors, and the
pair is magic when every weight is the same residue.  This package constructs
such labelings for complete graphs and blown-up cliques, proves nonexistence
through regularity and parity obstructions, and settles small graphs by
exhaustive search.
"""

from .constructors import *
from .graphs import *
from .obstructions import *
from .search import *
from .verifier import *
from .zero_sum import *

__version__ = "0.1.0"

__all__ = (["__version__"] + constructors.__all__ + graphs.__all__ + obstructions.__all__
           + search.__all__ + verifier.__all__ + zero_sum.__all__)
