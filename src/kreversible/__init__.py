"""k-reversible processes on graphs: dynamics, predecessor existence, counting.

A vertex of a graph holds a state from {-1, +1} and flips exactly when at
least k neighbors disagree with it; all vertices update synchronously.  The
package simulates the process, decides whether a configuration has a
predecessor (with fast algorithms for k=1, for trees, and for k=2 on graphs
of max degree 3), counts predecessors on trees, provides an exhaustive
brute-force oracle, and generates provably hard instances from 3-CNF
formulas.
"""

from .graphs import (
    Graph,
    RootedTree,
    as_config,
    connected_components,
    format_config,
    is_bipartite,
    is_tree,
    max_degree,
    parse_config,
    parse_graph,
    root_tree,
    write_graph,
)
from .dynamics import is_predecessor, simulate, step
from .oracle import (
    count_predecessors_bruteforce,
    enumerate_predecessors,
    find_predecessor_bruteforce,
    successor_indices,
)
from .k1 import SameStatePartition, find_predecessor_k1, same_state_partition
from .tree_decide import (
    INFEASIBLE,
    ForcedStateTable,
    compute_forced_states,
    find_predecessor_tree,
    transition_possible,
)
from .tree_count import (
    children_threshold,
    count_predecessors_tree,
    count_predecessors_tree_by_subsets,
)
from .deg3 import (
    TwoSatInstance,
    find_predecessor_deg3,
    predecessor_clauses,
    solve_2sat,
    to_dimacs,
)
from .route import count_predecessors, find_predecessor
from .reduction import (
    ClauseSemantics,
    Cnf3,
    GadgetInstance,
    Role,
    RoleTag,
    build_gadget,
    format_dimacs,
    format_role_map,
    gadget_sizes,
    invert_literals,
    parse_dimacs,
    predecessor_from_assignment,
    satisfies_semantics,
)

__version__ = "0.1.0"
