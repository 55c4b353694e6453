"""The paper's model lattice as metamorphic relations between oracle answers.

Every relation compares answers only, on small instances of any rule and
tie rule: 2-4 candidates (system E may add its four specials) and 0-6
voters.
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from electctl import (
    Candidate,
    ControlInstance,
    Problem,
    Profile,
    TieRule,
    VoterPartition,
    VotingRule,
    linear,
    oracle_solve,
)
from electctl.generate import random_instance


@st.composite
def voter_partition_instances(draw, ties=tuple(TieRule)):
    rule = draw(st.sampled_from(list(VotingRule)))
    return random_instance(
        random.Random(draw(st.integers(0, 2**32))), Problem.CCPV, rule,
        draw(st.sampled_from(ties)),
        n_candidates=draw(st.integers(2, 4)),
        n_voters=draw(st.integers(0, 6)),
        with_specials=rule is VotingRule.SYSTEM_E and draw(st.booleans()),
    )


def answer(inst, **changes):
    return oracle_solve(dataclasses.replace(inst, **changes)).answer


@settings(max_examples=150, deadline=None)
@given(voter_partition_instances())
def test_voter_partition_models_agree_where_the_paper_says(inst):
    ccpv = oracle_solve(inst).answer
    assert answer(inst, problem=Problem.CCPKV, k=2) == ccpv
    singletons = tuple((f"g{i}", (i,)) for i in range(len(inst.profile.ballots)))
    assert answer(inst, problem=Problem.CCPVG, groups=singletons) == ccpv
    # An equipartition is a partition.
    assert answer(inst, problem=Problem.CCEPV) == "no" or ccpv == "yes"


@settings(max_examples=100, deadline=None)
@given(voter_partition_instances(ties=(TieRule.TE,)))
def test_te_partition_yes_survives_one_more_part(inst):
    # Under TE, with two or more candidates, an empty part adds no finalist
    # who could cost p the final, so a k-part witness with one more, empty,
    # part is a (k + 1)-part witness.
    answers = [answer(inst, problem=Problem.CCPKV, k=k) for k in (2, 3, 4, 5)]
    for fewer, more in zip(answers, answers[1:]):
        assert fewer == "no" or more == "yes", answers


def test_tp_partition_yes_can_be_lost_with_one_more_part():
    # Tops p, p, a, a, b. Three parts can promote p and a only: ({0, 1, 4},
    # {2}, {3}), and p beats a 3 to 2. Four parts always promote all three:
    # an empty part promotes everyone, and four nonempty parts leave b
    # alone or tied in its part, with p and a topping the others. The
    # final is then the whole election, where p and a tie.
    orders = ("pab", "pab", "apb", "apb", "bpa")
    prof = Profile(tuple(map(Candidate, "pab")), tuple(linear(*o) for o in orders))
    inst = ControlInstance(problem=Problem.CCPKV, rule=VotingRule.PLURALITY, profile=prof,
                           p="p", tie=TieRule.TP, k=3)
    d = oracle_solve(inst)
    assert (d.answer, d.witness) == ("yes", VoterPartition(((0, 1, 4), (2,), (3,))))
    assert answer(inst, k=4) == "no"
