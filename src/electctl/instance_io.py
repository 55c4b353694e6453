"""Self-describing JSON documents for instances, witnesses, and results.

One format ("electctl/1") covers all eight control problems: ranked or
approval ballots, optional special-candidate tags, per-ballot group labels,
and an adder-pool section. Parsing and serialization round-trip losslessly
at the instance level.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .elections import Ballot, Candidate, Profile, VotingRule
from .two_stage import (
    CandidatePartition,
    ControlInstance,
    GroupSelection,
    Problem,
    TieRule,
    VoterPartition,
    Witness,
)

FORMAT = "electctl/1"

# Total ballots (main and pool, counts expanded) one document may describe;
# checked before any ballot is built.
MAX_BALLOTS = 1_000_000


class FormatError(ValueError):
    pass


def _require_format(doc: Any) -> None:
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    if doc.get("format") != FORMAT:
        raise FormatError(f'missing or unsupported format marker (want "{FORMAT}")')


def load_document(text: str) -> dict:
    """Parse JSON text into an electctl/1 document, checking its format marker."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    _require_format(doc)
    return doc


def _ballot_to_dict(ballot: Ballot, group: str | None) -> dict:
    if ballot.order is not None:
        entry: dict[str, Any] = {"order": list(ballot.order)}
    else:
        entry = {"approve": sorted(ballot.approvals)}
    if group is not None:
        entry["group"] = group
    return entry


def _ballot_from_dict(entry: dict) -> Ballot:
    if ("order" in entry) == ("approve" in entry):
        raise FormatError('each ballot needs exactly one of "order" / "approve"')
    if "order" in entry:
        return Ballot(order=tuple(entry["order"]))
    return Ballot(approvals=frozenset(entry["approve"]))


def _check_ballot_counts(doc: dict) -> None:
    total = 0
    for section in ("ballots", "pool"):
        for entry in doc.get(section, ()):
            count = entry.get("count", 1)
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise FormatError("ballot count must be a positive integer")
            total += count
    if total > MAX_BALLOTS:
        raise FormatError(f"document holds {total} ballots; the limit is {MAX_BALLOTS}")


def _ballots_from_list(entries: list) -> tuple[tuple[Ballot, ...], list[str | None]]:
    ballots: list[Ballot] = []
    labels: list[str | None] = []
    for entry in entries:
        ballot = _ballot_from_dict(entry)
        for _ in range(entry.get("count", 1)):
            ballots.append(ballot)
            labels.append(entry.get("group"))
    return tuple(ballots), labels


def _groups_from_labels(labels: list[str | None], what: str):
    if all(lab is None for lab in labels):
        return None
    if any(lab is None for lab in labels):
        raise FormatError(f"either all or no {what} ballots must carry a group label")
    groups: dict[str, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return tuple((lab, tuple(idx)) for lab, idx in groups.items())


def instance_to_dict(instance: ControlInstance) -> dict:
    doc: dict[str, Any] = {
        "format": FORMAT,
        "problem": instance.problem.value,
        "rule": instance.rule.value,
        "p": instance.p,
    }
    if instance.tie is not None:
        doc["tie"] = instance.tie.value
    if instance.k is not None:
        doc["k"] = instance.k
    if instance.limit is not None:
        doc["limit"] = instance.limit
    doc["candidates"] = [
        {"id": c.id} if c.special_index is None
        else {"id": c.id, "special": c.special_index}
        for c in instance.profile.candidates
    ]

    def labels_for(profile: Profile, grouped: bool) -> list[str | None]:
        out: list[str | None] = [None] * len(profile.ballots)
        if grouped:
            for lab, idx in instance.groups:
                for i in idx:
                    out[i] = lab
        return out

    main_grouped = instance.groups is not None and instance.problem is not Problem.CCAVG
    doc["ballots"] = [
        _ballot_to_dict(b, lab)
        for b, lab in zip(instance.profile.ballots,
                          labels_for(instance.profile, main_grouped))
    ]
    if instance.pool is not None:
        pool_grouped = instance.problem is Problem.CCAVG
        doc["pool"] = [
            _ballot_to_dict(b, lab)
            for b, lab in zip(instance.pool.ballots,
                              labels_for(instance.pool, pool_grouped))
        ]
    return doc


def instance_from_dict(doc: dict) -> ControlInstance:
    _require_format(doc)
    try:
        problem = Problem(doc["problem"])
        rule = VotingRule(doc["rule"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad problem/rule: {exc}") from exc
    tie = TieRule(doc["tie"]) if "tie" in doc else None
    candidates = tuple(
        Candidate(entry["id"], entry.get("special"))
        for entry in doc.get("candidates", ())
    )
    _check_ballot_counts(doc)
    ballots, labels = _ballots_from_list(doc.get("ballots", []))
    profile = Profile(candidates, ballots)
    pool = None
    pool_groups = None
    if "pool" in doc:
        pool_ballots, pool_labels = _ballots_from_list(doc["pool"])
        pool = Profile(candidates, pool_ballots)
        pool_groups = _groups_from_labels(pool_labels, "pool")
    groups = pool_groups if problem is Problem.CCAVG else _groups_from_labels(labels, "main")
    try:
        return ControlInstance(
            problem=problem,
            rule=rule,
            profile=profile,
            p=doc.get("p"),
            tie=tie,
            k=doc.get("k"),
            limit=doc.get("limit"),
            groups=groups,
            pool=pool,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def witness_to_dict(witness: Witness) -> dict:
    if isinstance(witness, VoterPartition):
        body: dict[str, Any] = {"type": "voter_partition",
                                "parts": [list(p) for p in witness.parts]}
    elif isinstance(witness, CandidatePartition):
        body = {"type": "candidate_partition",
                "c1": sorted(witness.c1), "c2": sorted(witness.c2)}
    elif isinstance(witness, GroupSelection):
        body = {"type": "group_selection", "groups": sorted(witness.labels)}
    else:
        raise FormatError(f"unknown witness type {type(witness).__name__}")
    return {"format": FORMAT, "witness": body}


def witness_from_dict(doc: dict) -> Witness:
    _require_format(doc)
    body = doc.get("witness")
    if not isinstance(body, dict):
        raise FormatError('missing "witness" object')
    kind = body.get("type")
    if kind == "voter_partition":
        return VoterPartition(tuple(tuple(p) for p in body["parts"]))
    if kind == "candidate_partition":
        return CandidatePartition(frozenset(body["c1"]), frozenset(body["c2"]))
    if kind == "group_selection":
        return GroupSelection(frozenset(body["groups"]))
    raise FormatError(f"unknown witness type {kind!r}")


def parse_instance(text: str) -> ControlInstance:
    return instance_from_dict(load_document(text))


def serialize_instance(instance: ControlInstance) -> str:
    return json.dumps(instance_to_dict(instance), indent=1) + "\n"


def parse_witness(text: str) -> Witness:
    return witness_from_dict(load_document(text))


def serialize_witness(witness: Witness) -> str:
    return json.dumps(witness_to_dict(witness), indent=1) + "\n"


def instance_digest(instance: ControlInstance) -> str:
    canonical = json.dumps(instance_to_dict(instance),
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
