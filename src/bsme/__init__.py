"""Commitment and oblivious transfer from a noisy public broadcast against
storage-bounded adversaries.

The package splits into value types (bits), analysis tools (infomath, gf2),
protocol building blocks (source, hashing, codes, subsets, ihash), the two
protocols (commit, ot), adversarial checks (harness), and the transport and
command line layer (app).
"""

from .bits import BitString, IndexSet
from .codes import FuzzyOutput, LinearCode, fuzzy_ext, fuzzy_rec
from .commit import CommitMessage, Committer, OpenMessage, Verifier
from .infomath import (
    CommitParams,
    Distribution,
    Feasibility,
    OTParams,
    ParameterError,
    binary_entropy,
    commit_delta_threshold,
    commit_feasible,
    cond_min_entropy,
    derive_commit_params,
    derive_ot_params,
    inv_binary_entropy,
    ot_feasible_gv,
    ot_gv_delta_threshold,
    rho,
    statistical_distance,
    subset_size_for,
    zyablov_delta,
)
from .hashing import ToeplitzHash, random_seed, seed_length, strong_extract
from .ihash import IHOutcome, Querier, Respondent
from .ot import OTReceiver, OTSender, TransferPayload
from .reasons import Reason, SetupAbort
from .source import SourceConfig, SourcePair, generate
from .subsets import DenseCode, subset_rank, subset_unrank

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "IndexSet",
    "LinearCode",
    "FuzzyOutput",
    "fuzzy_ext",
    "fuzzy_rec",
    "Committer",
    "Verifier",
    "CommitMessage",
    "OpenMessage",
    "CommitParams",
    "OTParams",
    "Distribution",
    "Feasibility",
    "ParameterError",
    "binary_entropy",
    "inv_binary_entropy",
    "commit_feasible",
    "ot_feasible_gv",
    "commit_delta_threshold",
    "ot_gv_delta_threshold",
    "zyablov_delta",
    "rho",
    "cond_min_entropy",
    "statistical_distance",
    "subset_size_for",
    "derive_commit_params",
    "derive_ot_params",
    "ToeplitzHash",
    "strong_extract",
    "seed_length",
    "random_seed",
    "Querier",
    "Respondent",
    "IHOutcome",
    "OTSender",
    "OTReceiver",
    "TransferPayload",
    "SetupAbort",
    "Reason",
    "SourceConfig",
    "SourcePair",
    "generate",
    "DenseCode",
    "subset_rank",
    "subset_unrank",
    "__version__",
]
