"""Classical regular-language engine (the paper's base-case substrate).

Purely regular regex fragments — the leaves the model translation of §4
bottoms out in — are compiled here to automata supporting membership,
complement (for §4.4 non-membership), intersection, emptiness and
length-ordered word enumeration (which powers the string solver's
candidate generation).
"""

from repro.automata.build import NotRegularError, erase_captures, to_nfa
from repro.automata.cache import (
    AutomataInterner,
    DfaDiskStore,
    node_fingerprint,
)
from repro.automata.dfa import Dfa, determinize, finite_dfa, universal_dfa
from repro.automata.lazy import (
    ConcatWitness,
    ExplorationBudgetExceeded,
    LazyConcatProduct,
    LazyProduct,
    LazyUnion,
    finite_words,
    lazy_intersect_all,
    lazy_union_all,
)
from repro.automata.nfa import Nfa
from repro.automata.ops import (
    automata_cache_counters,
    clear_caches,
    complement_dfa_for,
    configure_automata_cache,
    dfa_for,
    dfa_for_pattern,
    intersect_all,
    membership_witness,
    nfa_for,
)
from repro.automata.visualize import to_dot

__all__ = [
    "AutomataInterner",
    "ConcatWitness",
    "Dfa",
    "DfaDiskStore",
    "ExplorationBudgetExceeded",
    "LazyConcatProduct",
    "LazyProduct",
    "LazyUnion",
    "Nfa",
    "NotRegularError",
    "automata_cache_counters",
    "clear_caches",
    "complement_dfa_for",
    "configure_automata_cache",
    "determinize",
    "dfa_for",
    "dfa_for_pattern",
    "erase_captures",
    "finite_dfa",
    "finite_words",
    "intersect_all",
    "lazy_intersect_all",
    "lazy_union_all",
    "membership_witness",
    "nfa_for",
    "node_fingerprint",
    "to_dot",
    "to_nfa",
    "universal_dfa",
]
