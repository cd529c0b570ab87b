"""Shared workload builders for the benchmark suite.

Every benchmark regenerates a row/series of the paper's evaluation
artifacts (Tables 1-2 and Figures 1-8); see README.md ("Benchmarks") for
how to run them and ROADMAP.md ("Benchmark workflow") for the recorded
trajectory in ``BENCH_core.json``.  Correctness is
asserted inside each benchmark body, so the timing numbers are produced by
runs that provably computed the right answers.
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import LabeledDag
from repro.flexiwords.flexiword import FlexiWord
from repro.workloads.generators import (
    random_conjunctive_monadic_query,
    random_flexiword,
    random_observer_dag,
    random_sequential_query,
)


def observer_db(seed: int, observers: int, chain_length: int) -> LabeledDag:
    """A deterministic k-observer database."""
    return random_observer_dag(
        random.Random(seed), observers, chain_length
    )


def antichain_db(seed: int, size: int) -> LabeledDag:
    """A width-`size` database: one labelled point per observer."""
    rng = random.Random(seed)
    chains = [random_flexiword(rng, 1, empty_ok=False) for _ in range(size)]
    return LabeledDag.from_chains(chains)


def seq_query(seed: int, length: int):
    """A deterministic sequential query."""
    return random_sequential_query(
        random.Random(seed), length, empty_ok=False
    )


def dag_query(seed: int, n_vars: int):
    """A deterministic conjunctive monadic (dag) query."""
    return random_conjunctive_monadic_query(
        random.Random(seed), n_vars, edge_prob=0.5, empty_ok=False
    )
