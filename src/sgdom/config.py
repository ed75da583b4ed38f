"""Runtime caps and budgets, overridable through the environment."""

import os

DEFAULT_MAX_BRUTE_N = 24
DEFAULT_NODE_BUDGET = 10**8
DEFAULT_MAX_SUBSET_N = 20
DEFAULT_MAX_SAT_VARS = 30


def max_brute_n() -> int:
    return int(os.environ.get("SGD_MAX_BRUTE_N", DEFAULT_MAX_BRUTE_N))


def node_budget() -> int:
    return int(os.environ.get("SGD_NODE_BUDGET", DEFAULT_NODE_BUDGET))
