"""Election control by partition: winner rules, two-stage semantics,
polynomial solvers, an exhaustive oracle, and hardness-reduction generators."""

from .elections import (
    Ballot,
    Candidate,
    Profile,
    VotingRule,
    approval,
    linear,
    majority_margin,
    restrict_profile,
    score_approval,
    score_plurality,
    winners,
)
from .oracle import DEFAULT_BUDGET, enumerate_equipartitions, oracle_solve
from .reductions import (
    CubicGraphVC,
    MajoritySpec,
    X3CInstance,
    approval_ccpv_te_to_e_ccpv_tp,
    cubic_vc_to_weakcondorcet_ccrepc_tp,
    mcgarvey_profile,
    pull_back_vc_witness,
    solve_vc_bruteforce,
    solve_x3c_bruteforce,
    x3c_to_plurality_ccpvg_te,
)
from .solvers import (
    UnsupportedInstance,
    solve_plurality_ccepv_te,
    solve_plurality_ccpkv_te,
    solve_poly,
    solve_system_e_ccepv_tp,
    solve_weakcondorcet_ccrpc_tp,
)
from .two_stage import (
    TAKES,
    CandidatePartition,
    ControlInstance,
    Decision,
    GroupSelection,
    Problem,
    TieRule,
    VoterPartition,
    Witness,
    finalists_voter_partition,
    replay,
    run_two_stage_candidate_partition,
    run_two_stage_voter_partition,
    verify_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
