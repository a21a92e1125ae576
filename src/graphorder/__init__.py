"""Graph-ordering toolkit: windowed locality scoring, greedy and learned
vertex orderings, and downstream compression/partitioning evaluators.

The root exports the names of the README's library example; the rest of the
API is in the submodules."""

from .graph import gen_power_law
from .locality import locality_score
from .baselines import greedy_order
from .scorer import ScorerConfig, model_order
from .tuner import RlConfig, train_scorer_rl
from .downstream import compression_cost, partition_from_order, replication_factor

__all__ = ["gen_power_law", "greedy_order", "locality_score", "ScorerConfig", "RlConfig",
           "train_scorer_rl", "model_order", "compression_cost", "partition_from_order",
           "replication_factor"]

__version__ = "0.1.0"
