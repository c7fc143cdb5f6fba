"""Commitment and oblivious transfer from a noisy public broadcast against
storage-bounded adversaries.

The package splits into value types (bits), analysis tools (infomath, gf2),
protocol building blocks (source, hashing, codes, subsets, ihash), the two
protocols (commit, ot), adversarial checks (harness), and the transport and
command line layer (app).  Import each name from the module that defines it;
the root re-exports only the few names the benchmark imports from here.
"""

from .bits import BitString
from .codes import LinearCode
from .infomath import derive_commit_params, derive_ot_params

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "LinearCode",
    "derive_commit_params",
    "derive_ot_params",
    "__version__",
]
