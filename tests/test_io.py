"""Unit tests for the JSON instance/witness document format."""

import gc
import json
import sys

import pytest

from electctl import (
    Candidate,
    CandidatePartition,
    ControlInstance,
    GroupSelection,
    Problem,
    Profile,
    TieRule,
    VoterPartition,
    VotingRule,
    approval,
    linear,
)
from electctl.instance_io import (
    FORMAT,
    MAX_BALLOTS,
    MAX_CANDIDATES,
    FormatError,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    parse_instance,
    parse_witness,
    serialize_instance,
    serialize_witness,
    witness_to_dict,
)
from pab import PAB, lex

MISSING = object()  # an entry without the key
NEEDS_LABEL = 'every "{}" ballot of {} needs a string group label'


def sample_instances():
    prof = Profile(PAB, (lex("p"), lex("a"), lex("b"), lex("a")))
    specials = PAB + tuple(Candidate(f"s{i}", i) for i in range(4))
    yield ControlInstance(problem=Problem.CCPV, rule=VotingRule.PLURALITY,
                          profile=prof, p="p", tie=TieRule.TE)
    yield ControlInstance(problem=Problem.CCPKV, rule=VotingRule.PLURALITY,
                          profile=prof, p="p", tie=TieRule.TP, k=3)
    yield ControlInstance(problem=Problem.CCRPC, rule=VotingRule.CONDORCET,
                          profile=prof, p="p", tie=TieRule.TE)
    yield ControlInstance(problem=Problem.CCPVG, rule=VotingRule.PLURALITY,
                          profile=prof, p="p", tie=TieRule.TE,
                          labels=("g1", "g1", "g2", "g2"))
    yield ControlInstance(problem=Problem.CCDVG, rule=VotingRule.PLURALITY,
                          profile=prof, p="p", limit=2,
                          labels=("g1", "g1", "g2", "g2"))
    yield ControlInstance(problem=Problem.CCAVG, rule=VotingRule.PLURALITY,
                          profile=prof, p="p", limit=1,
                          labels=("h1", "h2"),
                          pool=Profile(PAB, (lex("p"), lex("p"))))
    yield ControlInstance(problem=Problem.CCEPV, rule=VotingRule.SYSTEM_E,
                          profile=Profile(specials, (approval(["p"]),
                                                     approval(["a", "b"]))),
                          p="p", tie=TieRule.TP)


class TestRoundTrip:
    def test_instances_round_trip(self):
        for inst in sample_instances():
            again = parse_instance(serialize_instance(inst))
            assert again == inst, inst.problem

    def test_digest_stable_under_round_trip(self):
        for inst in sample_instances():
            again = parse_instance(serialize_instance(inst))
            assert instance_digest(again) == instance_digest(inst)

    def test_digest_distinguishes_instances(self):
        digests = [instance_digest(i) for i in sample_instances()]
        assert len(set(digests)) == len(digests)

    def test_witnesses_round_trip(self):
        for w in (VoterPartition(((0, 2), (1,))),
                  CandidatePartition(frozenset({"p"}), frozenset({"a", "b"})),
                  GroupSelection(frozenset({"g1", "g2"}))):
            assert parse_witness(serialize_witness(w)) == w

    def test_ballot_counts_expand(self):
        doc = {
            "format": FORMAT,
            "problem": "CCPV",
            "rule": "plurality",
            "p": "p",
            "tie": "TE",
            "candidates": [{"id": "p"}, {"id": "a"}, {"id": "b"}],
            "ballots": [{"order": ["p", "a", "b"], "count": 3},
                        {"order": ["a", "b", "p"]}],
        }
        inst = instance_from_dict(doc)
        assert len(inst.profile.ballots) == 4
        assert inst.profile.ballots[0] == inst.profile.ballots[2]

    def test_special_tags_survive(self):
        inst = list(sample_instances())[-1]
        doc = instance_to_dict(inst)
        tagged = [c for c in doc["candidates"] if "special" in c]
        assert sorted(c["special"] for c in tagged) == [0, 1, 2, 3]


PAB_DOC = [{"id": "p"}, {"id": "a"}, {"id": "b"}]
ESC_DOC = [{"id": c} for c in ("p", "é", "日本", "\U0001F600", 'q"\\z')]
# name: (document, the sha256 hex digest of its canonical form). Solve
# records and sweep CSVs store digests, so a change to any of these changes
# the format.
GOLDEN_DIGESTS = {
    "ranked-with-count": ({
        "format": FORMAT, "problem": "CCEPV", "rule": "plurality", "tie": "TE",
        "p": "p", "candidates": PAB_DOC,
        "ballots": [{"order": ["p", "a", "b"], "count": 3}, {"order": ["a", "b", "p"]},
                    {"order": ["b", "p", "a"], "count": 2}, {"order": ["p", "a", "b"]}]},
        "ac66f04a9f380c5f8e3e3cfb72b30b2a8b7eff863ed0f54137e71d25b4fc9e43"),
    "system-e-with-specials": ({
        "format": FORMAT, "problem": "CCPV", "rule": "systemE", "tie": "TP", "p": "p",
        "candidates": PAB_DOC + [{"id": f"s{i}", "special": i} for i in range(4)],
        "ballots": [{"approve": ["p", "s0"]}, {"approve": ["a", "s1", "b"], "count": 2},
                    {"approve": []}, {"approve": ["s3", "p"]}]},
        "94fe32c64760343c495d6eda4572d440be63fd41f9031aac853e585a5ba4d872"),
    "ccpvg-with-groups": ({
        "format": FORMAT, "problem": "CCPVG", "rule": "plurality", "tie": "TE",
        "p": "p", "candidates": PAB_DOC,
        "ballots": [{"order": ["p", "a", "b"], "group": "g1", "count": 2},
                    {"order": ["a", "p", "b"], "group": "g2"},
                    {"order": ["p", "a", "b"], "group": "g2"},
                    {"order": ["b", "a", "p"], "group": "g1"}]},
        "622b0ef7937f7e91def5b276a916a1f77dfbfd0cc010ed208c2171964a174435"),
    "ccavg-with-pool-labels": ({
        "format": FORMAT, "problem": "CCAVG", "rule": "condorcet", "limit": 1,
        "p": "p", "candidates": PAB_DOC,
        "ballots": [{"order": ["a", "p", "b"], "count": 2}, {"order": ["b", "p", "a"]}],
        "pool": [{"order": ["p", "a", "b"], "group": "h1", "count": 2},
                 {"order": ["p", "b", "a"], "group": "h2"}]},
        "b5cb2d02da21717f0332a8c552285bb95387276cc3e7e61bf192b001ef960954"),
    "ccpkv-with-k": ({
        "format": FORMAT, "problem": "CCPkV", "rule": "weakCondorcet", "tie": "TP",
        "k": 3, "p": "p", "candidates": PAB_DOC,
        "ballots": [{"order": ["p", "a", "b"]}, {"order": ["a", "b", "p"], "count": 3},
                    {"order": ["b", "p", "a"]}]},
        "db30935328bf4c1a35dcd0c4de0bc32a09d3bf2c69793b6d160ca086cec521fb"),
    "ccdvg-with-limit": ({
        "format": FORMAT, "problem": "CCDVG", "rule": "approval", "limit": 2,
        "p": "p", "candidates": PAB_DOC,
        "ballots": [{"approve": ["a", "b"], "group": "x", "count": 2},
                    {"approve": ["p"], "group": "y"},
                    {"approve": ["b", "a"], "group": "z"}]},
        "89ef83b493862067911f3a82e748dcd3c22d66bbe315da78572a86f0b3c55a15"),
    # Ids and labels that JSON escapes: non-ASCII ones, one outside the BMP
    # (written as a surrogate pair), a control character, a quote and a
    # backslash; ranked and approval ballots with labels on the pool.
    "ccavg-ranked-escaping": ({
        "format": FORMAT, "problem": "CCAVG", "rule": "condorcet", "limit": 1,
        "p": "p", "candidates": ESC_DOC,
        "ballots": [{"order": ["é", "p", "日本", "\U0001F600", 'q"\\z'], "count": 2},
                    {"order": ['q"\\z', "\U0001F600", "日本", "é", "p"]}],
        "pool": [{"order": ["p", "é", "日本", "\U0001F600", 'q"\\z'], "group": "grüppe",
                  "count": 2},
                 {"order": ["\U0001F600", "p", 'q"\\z', "é", "日本"], "group": "\U0001D11E\t"},
                 {"order": ["p", "é", "日本", "\U0001F600", 'q"\\z'], "group": "\U0001D11E\t"}]},
        "4a389da8ce6773ebb45375e200ff074d009b30bb006aee83f0f62460baab19e0"),
    "ccavg-approval-escaping": ({
        "format": FORMAT, "problem": "CCAVG", "rule": "approval", "limit": 2,
        "p": "p", "candidates": ESC_DOC,
        "ballots": [{"approve": ['q"\\z', "日本", "é"], "count": 2}, {"approve": []},
                    {"approve": ["\U0001F600", "p"]}],
        "pool": [{"approve": ["p", "\U0001F600"], "group": "\U0001D11E\t", "count": 2},
                 {"approve": ["日本", 'q"\\z'], "group": "grüppe"},
                 {"approve": ["\U0001F600", "p"], "group": "grüppe"}]},
        "8a7305de5ca6c4fd03c88c3afa4136459db4f7cda236be8d7945c3e757f54939"),
}


@pytest.mark.parametrize("name", GOLDEN_DIGESTS)
def test_digest_is_pinned(name):
    doc, digest = GOLDEN_DIGESTS[name]
    inst = instance_from_dict(doc)
    assert instance_digest(inst) == digest
    assert instance_digest(parse_instance(serialize_instance(inst))) == digest


def test_equal_ballots_share_one_object():
    doc = {"format": FORMAT, "problem": "CCAVG", "rule": "plurality", "limit": 1,
           "p": "p", "candidates": PAB_DOC,
           "ballots": [{"order": ["p", "a", "b"], "count": 2}, {"order": ["a", "b", "p"]},
                       {"order": ["p", "a", "b"]}],
           "pool": [{"order": ["p", "a", "b"], "group": "h"}]}
    inst = instance_from_dict(doc)
    first = inst.profile.ballots[0]
    assert all(b is first for b in inst.profile.ballots[1:2] + inst.profile.ballots[3:])
    assert inst.pool.ballots[0] is first
    assert inst.profile.positions[0] is inst.profile.positions[3]


def ballots_doc(rule, entries, problem="CCPV", **more):
    return {"format": FORMAT, "problem": problem, "rule": rule, "p": "p", "tie": "TE",
            "candidates": PAB_DOC, "ballots": entries, **more}


@pytest.mark.parametrize("extra", [{}, {"count": 1}, {"group": "g"}],
                         ids=["plain", "with-count", "with-group"])
@pytest.mark.parametrize("rule, key, made", [
    ("plurality", "order", lambda ids: linear(*ids)),
    ("approval", "approve", approval),
])
def test_read_ballots_equal_and_hash_like_built_ones(rule, key, made, extra):
    ids = (["p", "a", "b"], ["b", "p", "a"], ["p", "a", "b"])
    if rule == "approval":
        ids = (["p"], [], ["b", "a"], ["a", "b"])
    entries = [{key: list(i), **extra} for i in ids]
    doc = ballots_doc(rule, entries, problem="CCPVG" if "group" in extra else "CCPV")
    read = instance_from_dict(doc).profile.ballots
    want = tuple(made(i) for i in ids)
    assert read == want
    assert list(map(hash, read)) == list(map(hash, want))
    assert [b.kind for b in read] == [b.kind for b in want]


# A malformed ballot entry and the message it fails with, the same wherever
# it stands among well-formed entries.
MALFORMED_ENTRIES = {
    "duplicate-id": ("plurality", {"order": ["p", "p", "b"]},
                     "linear ballot ('p', 'p', 'b') is not a permutation of ('p', 'a', 'b')"),
    "unknown-id": ("plurality", {"order": ["p", "x", "b"]},
                   "linear ballot ('p', 'x', 'b') is not a permutation of ('p', 'a', 'b')"),
    "short-order": ("plurality", {"order": ["p", "a"]},
                    "linear ballot ('p', 'a') is not a permutation of ('p', 'a', 'b')"),
    "long-order": ("plurality", {"order": ["p", "a", "b", "a"]},
                   "linear ballot ('p', 'a', 'b', 'a') is not a permutation of ('p', 'a', 'b')"),
    "non-string-id": ("plurality", {"order": ["p", 1, "b"]},
                      "linear ballot ('p', 1, 'b') is not a permutation of ('p', 'a', 'b')"),
    "unknown-approval-id": ("approval", {"approve": ["p", "x"]},
                            "approval ballot mentions unknown candidates: ['x']"),
    "mixed-kinds": ("plurality", {"approve": ["p"]}, "mixed ballot kinds in one profile"),
    "unhashable-id": ("plurality", {"order": [["p"], "a", "b"]},
                      '"order" / "approve" must be a list of candidate ids'),
    "ids-not-a-list": ("plurality", {"order": "pab"},
                       '"order" / "approve" must be a list of candidate ids'),
    "count-zero": ("plurality", {"order": ["p", "a", "b"], "count": 0},
                   "ballot count must be a positive integer"),
    "count-true": ("plurality", {"order": ["p", "a", "b"], "count": True},
                   "ballot count must be a positive integer"),
    "stray-group": ("plurality", {"order": ["p", "a", "b"], "group": "g"},
                    'CCPV takes no group labels on "ballots" ballots'),
    "not-an-object": ("plurality", ["p", "a", "b"], "each ballot must be an object"),
    "both-kinds": ("plurality", {"order": ["p", "a", "b"], "approve": ["p"]},
                   'each ballot needs exactly one of "order" / "approve"'),
}


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("name", MALFORMED_ENTRIES)
def test_a_malformed_entry_fails_with_its_message(name, where):
    rule, bad, message = MALFORMED_ENTRIES[name]
    good = {"order": ["p", "a", "b"]} if rule == "plurality" else {"approve": ["p"]}
    entries = [bad, good] if where == "first" else [good, good, bad]
    with pytest.raises(FormatError) as caught:
        instance_from_dict(ballots_doc(rule, entries))
    assert str(caught.value) == message


def test_the_first_malformed_entry_names_the_fault():
    entries = [{"order": ["p", "a", "b"]}, {"order": [["p"], "a", "b"]},
               {"order": ["p", "a", "b"], "count": 0}]
    with pytest.raises(FormatError, match='"order" / "approve" must be a list'):
        instance_from_dict(ballots_doc("plurality", entries))
    entries[1:] = entries[:0:-1]
    with pytest.raises(FormatError, match="ballot count must be a positive integer"):
        instance_from_dict(ballots_doc("plurality", entries))


class TestCollectorState:
    """Reading a document pauses the cyclic collector and leaves it as it
    found it, enabled or disabled, whether the read succeeds or raises."""

    GOOD_INSTANCE = json.dumps(GOLDEN_DIGESTS["ccpvg-with-groups"][0])
    GOOD_WITNESS = serialize_witness(VoterPartition(((0, 2), (1,))))
    BAD = {
        "bad JSON": "{nope",
        "nested too deeply": "[" * 100_000 + "]" * 100_000,
        "bad ballot": GOOD_INSTANCE.replace('"order": ["b", "a", "p"]', '"order": ["b", 1]'),
    }

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_state_kept_after_a_parse(self, collector):
        assert parse_instance(self.GOOD_INSTANCE).problem is Problem.CCPVG
        assert gc.isenabled() is collector
        assert parse_witness(self.GOOD_WITNESS) == VoterPartition(((0, 2), (1,)))
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("bad", BAD)
    def test_state_kept_after_a_failed_parse(self, collector, bad):
        for parse in (parse_instance, parse_witness):
            with pytest.raises(FormatError):
                parse(self.BAD[bad])
            assert gc.isenabled() is collector


class TestErrors:
    def base_doc(self):
        return {
            "format": FORMAT,
            "problem": "CCPV",
            "rule": "plurality",
            "p": "p",
            "tie": "TE",
            "candidates": [{"id": "p"}, {"id": "a"}, {"id": "b"}],
            "ballots": [{"order": ["p", "a", "b"]}],
        }

    def test_missing_format_marker(self):
        doc = self.base_doc()
        del doc["format"]
        with pytest.raises(FormatError):
            instance_from_dict(doc)

    def test_not_json(self):
        with pytest.raises(FormatError):
            parse_instance("{nope")

    def test_integer_past_the_digit_limit(self):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an
        # integer literal longer than the interpreter converts (4,300 digits
        # by default; Python 3.10.7 and later).
        nines = "9" * 5000
        instance = '{"format": "electctl/1", "problem": "CCPkV", "k": %s}' % nines
        witness = ('{"format": "electctl/1", "witness": {"type": "voter_partition", '
                   '"parts": [[0]]}, "k": %s}' % nines)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for parse, text in ((parse_instance, instance), (parse_witness, witness)):
                with pytest.raises(FormatError, match="^not valid JSON: Exceeds the limit"):
                    parse(text)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_unknown_problem_or_rule(self):
        for key, value in (("problem", "CCXYZ"), ("rule", "borda")):
            doc = self.base_doc()
            doc[key] = value
            with pytest.raises(FormatError, match="bad problem/rule"):
                instance_from_dict(doc)

    def test_ballot_with_both_kinds(self):
        doc = self.base_doc()
        doc["ballots"] = [{"order": ["p", "a", "b"], "approve": ["p"]}]
        with pytest.raises(FormatError):
            instance_from_dict(doc)

    def test_bad_ballot_count(self):
        for count in (0, True):
            doc = self.base_doc()
            doc["ballots"] = [{"order": ["p", "a", "b"], "count": count}]
            with pytest.raises(FormatError):
                instance_from_dict(doc)

    def test_ballot_total_is_capped_per_document(self):
        # Main and pool counts add up; the sum is checked before expansion.
        doc = self.base_doc()
        doc.update(problem="CCAVG", limit=1)
        del doc["tie"]
        doc["ballots"] = [{"order": ["p", "a", "b"], "count": MAX_BALLOTS}]
        doc["pool"] = [{"order": ["p", "a", "b"], "group": "h1"}]
        with pytest.raises(FormatError, match="limit"):
            instance_from_dict(doc)

    def test_candidate_count_is_capped_per_document(self):
        # Checked before any candidate is built: the entries here are not
        # even candidate objects, yet the message is about the limit.
        doc = self.base_doc()
        doc["candidates"] = [5] * (MAX_CANDIDATES + 1)
        with pytest.raises(FormatError, match="limit"):
            instance_from_dict(doc)
        doc["candidates"] = [{"id": f"c{i}"} for i in range(MAX_CANDIDATES)]
        doc["candidates"][0] = {"id": "p"}
        doc["ballots"] = []
        assert len(instance_from_dict(doc).profile.candidates) == MAX_CANDIDATES

    def test_k_is_capped_per_document(self):
        # A part per ballot at most: a larger k is rejected before any part
        # is built, however few ballots the document holds.
        doc = self.base_doc()
        doc.update(problem="CCPkV", k=MAX_BALLOTS + 1)
        with pytest.raises(FormatError, match="limit"):
            instance_from_dict(doc)
        doc["k"] = MAX_BALLOTS
        assert instance_from_dict(doc).k == MAX_BALLOTS

    def test_bad_candidate_or_ballot_section(self):
        for field, value, message in (
                ("candidates", [{"id": "p"}, "a"], 'string "id"'),
                ("candidates", [{"id": "p"}, {"id": 7}], 'string "id"'),
                ("candidates", [{"id": "p"}, {"name": "a"}], 'string "id"'),
                ("candidates", [{"id": "p", "special": "0"}], '"special" must be an integer'),
                ("candidates", [{"id": "p", "special": 1.0}], '"special" must be an integer'),
                ("ballots", {"order": ["p", "a", "b"]}, '"ballots" must be a list')):
            doc = self.base_doc()
            doc[field] = value
            with pytest.raises(FormatError, match=message):
                instance_from_dict(doc)

    def test_partial_group_labels(self):
        doc = self.base_doc()
        doc["problem"] = "CCPVG"
        doc["ballots"] = [{"order": ["p", "a", "b"], "group": "g1"},
                          {"order": ["a", "b", "p"]}]
        with pytest.raises(FormatError):
            instance_from_dict(doc)

    def labelled_doc(self, problem):
        """A valid ``problem`` document: two ballots, and for CCAVG two pool
        ballots, with a label on each ballot of the grouped section."""
        doc = self.base_doc()
        doc.update(problem=problem,
                   ballots=[{"order": ["p", "a", "b"]}, {"order": ["b", "a", "p"]}])
        if problem == "CCAVG":
            del doc["tie"]
            doc.update(limit=1, pool=[{"order": ["a", "p", "b"], "group": "h1"},
                                      {"order": ["p", "b", "a"], "group": "h2"}])
        elif problem == "CCPVG":
            doc["ballots"][0]["group"], doc["ballots"][1]["group"] = "g1", "g2"
        return doc

    @pytest.mark.parametrize("problem,section,group,message", [
        ("CCEPV", "ballots", "g1", 'CCEPV takes no group labels on "ballots" ballots'),
        ("CCAVG", "ballots", "g1", 'CCAVG takes no group labels on "ballots" ballots'),
        ("CCEPV", "ballots", 7, 'CCEPV takes no group labels on "ballots" ballots'),
        ("CCPVG", "ballots", MISSING, NEEDS_LABEL.format("ballots", "CCPVG")),
        ("CCPVG", "ballots", None, NEEDS_LABEL.format("ballots", "CCPVG")),
        ("CCPVG", "ballots", 7, NEEDS_LABEL.format("ballots", "CCPVG")),
        ("CCAVG", "pool", MISSING, NEEDS_LABEL.format("pool", "CCAVG")),
        ("CCAVG", "pool", ["h1"], NEEDS_LABEL.format("pool", "CCAVG")),
    ], ids=["ccepv-stray", "ccavg-stray-on-ballots", "ccepv-stray-number", "ccpvg-missing",
            "ccpvg-null", "ccpvg-number", "ccavg-pool-missing", "ccavg-pool-list"])
    def test_group_labels_are_checked_per_entry(self, problem, section, group, message):
        # Labels sit on every ballot of the section ControlInstance.grouped
        # names and on no other; the last entry of ``section`` breaks that.
        doc = self.labelled_doc(problem)
        instance_from_dict(doc)
        doc[section][-1].pop("group", None)
        if group is not MISSING:
            doc[section][-1]["group"] = group
        with pytest.raises(FormatError, match=message):
            instance_from_dict(doc)

    @pytest.mark.parametrize("problem", ["CCEPV", "CCAVG"])
    def test_null_label_on_an_ungrouped_section_is_no_label(self, problem):
        doc = self.labelled_doc(problem)
        plain = instance_from_dict(doc)
        doc["ballots"][0]["group"] = None
        assert instance_from_dict(doc) == plain

    def test_semantic_errors_become_format_errors(self):
        doc = self.base_doc()
        doc["p"] = "z"
        with pytest.raises(FormatError):
            instance_from_dict(doc)

    def test_unknown_witness_type(self):
        with pytest.raises(FormatError):
            parse_witness(json.dumps(
                {"format": FORMAT, "witness": {"type": "wat"}}))
        with pytest.raises(FormatError):
            parse_witness(json.dumps({"format": FORMAT}))
        with pytest.raises(FormatError, match="unknown witness type"):
            witness_to_dict(("not", "a", "witness"))
