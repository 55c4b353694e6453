"""The three-candidate election the unit tests share: candidates p, a and b,
and linear ballots named by their top choice; and ``members``, which lists
a bitmask's elements bit by bit, as the tests read the core's masks."""

from electctl import Candidate, Profile, linear

PAB = tuple(Candidate(c) for c in ("p", "a", "b"))


def lex(top):
    """The linear ballot with ``top`` first and the other two in sorted order."""
    rest = sorted(c for c in ("p", "a", "b") if c != top)
    return linear(top, *rest)


def profile(*tops):
    """The profile over PAB of one ``lex`` ballot per top choice."""
    return Profile(PAB, tuple(lex(t) for t in tops))


def members(mask):
    """The elements of the bitmask ``mask``, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
