"""The paper's algorithms: SEQ, path decomposition, bounded-width searches."""

from repro.algorithms.bruteforce import (
    EntailmentWitness,
    OpenQuery,
    count_countermodels,
    entailment_sweep,
    entails_bruteforce,
    entails_bruteforce_monadic,
)
from repro.algorithms.conjunctive import (
    bounded_width_entails,
    bounded_width_entails_dag,
    paths_entails,
    paths_entails_dag,
)
from repro.algorithms.disjunctive import (
    DisjunctiveResult,
    iter_countermodels,
    theorem53,
    theorem53_entails,
)
from repro.algorithms.modelcheck import (
    GroundingMachine,
    MonadicFrontierMachine,
    structure_satisfies,
    word_satisfies,
    word_satisfies_dag,
)
from repro.algorithms.seq import seq_countermodel, seq_entails, seq_entails_query

__all__ = [
    "DisjunctiveResult",
    "EntailmentWitness",
    "bounded_width_entails",
    "bounded_width_entails_dag",
    "GroundingMachine",
    "MonadicFrontierMachine",
    "OpenQuery",
    "count_countermodels",
    "entailment_sweep",
    "entails_bruteforce",
    "entails_bruteforce_monadic",
    "iter_countermodels",
    "paths_entails",
    "paths_entails_dag",
    "seq_countermodel",
    "seq_entails",
    "seq_entails_query",
    "structure_satisfies",
    "theorem53",
    "theorem53_entails",
    "word_satisfies",
    "word_satisfies_dag",
]
