"""Self-describing JSON documents for instances, witnesses, and results.

One format ("electctl/1") covers all eight control problems: ranked or
approval ballots, optional special-candidate tags, per-ballot group labels,
and an adder-pool section. Parsing and serialization round-trip losslessly
at the instance level.
"""

from __future__ import annotations

import gc
import hashlib
import json
from itertools import chain, compress, filterfalse, repeat, zip_longest
from operator import not_
from typing import Any, Iterable

from .elections import _APPROVALS, _ORDER, Ballot, Candidate, Profile, VotingRule, typed_ballots
from .reductions import CubicGraphVC, X3CInstance
from .two_stage import (
    TAKES,
    CandidatePartition,
    ControlInstance,
    GroupSelection,
    Problem,
    TieRule,
    VoterPartition,
    Witness,
)

FORMAT = "electctl/1"

# Total ballots (main and pool, counts expanded) one instance may hold. It
# bounds a CCPkV "k" too: a part per ballot at most.
MAX_BALLOTS = 1_000_000
# Candidates one instance may list: some work is quadratic in them (the
# Condorcet family's pair loop, CCPkV's pair blocks, CCEPV's condition 3).
MAX_CANDIDATES = 1_000
# Ballot entries (candidates times ballots) one instance may hold: what its
# profile, document and digest grow with (10^6 take `gen` 1.4 s and 116 MB on
# a 2-core Xeon), however few entries a document with "count"s lists.
MAX_ENTRIES = 10_000_000


class FormatError(ValueError):
    pass


def check_sizes(candidates: int, ballots: int, k: int | None = None) -> None:
    """Refuse an instance of these sizes past the bounds above: the one size
    check of the reader, the generator and ``reduce``, each of which calls
    it before it builds anything of that size."""
    for what, value, bound in (("candidates", candidates, MAX_CANDIDATES),
                               ("ballots", ballots, MAX_BALLOTS),
                               ("ballot entries (candidates x ballots)",
                                candidates * ballots, MAX_ENTRIES),
                               ('parts ("k")', k or 0, MAX_BALLOTS)):
        if value > bound:
            raise FormatError(f"too many {what}: {value}; the limit is {bound}")


def _require_format(doc: Any) -> None:
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    if doc.get("format") != FORMAT:
        raise FormatError(f'missing or unsupported format marker (want "{FORMAT}")')


def load_document(text: str) -> Any:
    """Parse JSON text; each reader it feeds checks the format marker."""
    try:
        return json.loads(text)
    except ValueError as exc:  # bad syntax, or an int past the interpreter's digit limit
        raise FormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("not valid JSON: arrays or objects nest too deeply") from exc


def _ballot_to_dict(ballot: Ballot, group: str | None) -> dict:
    if ballot.order is not None:
        entry: dict[str, Any] = {"order": list(ballot.order)}
    else:
        entry = {"approve": sorted(ballot.approvals)}
    if group is not None:
        entry["group"] = group
    return entry


def _is_int(value: Any) -> bool:
    return type(value) is int  # not bool, which JSON's true/false load as


def _is_str_list(value: Any) -> bool:
    if not isinstance(value, list):
        return False
    try:
        "".join(value)  # str.join takes only strings: a type check at C speed
    except TypeError:
        return False
    return True


def _candidate_from_dict(entry: Any) -> Candidate:
    if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
        raise FormatError('each candidate must be an object with a string "id"')
    special = entry.get("special")
    if special is not None and not _is_int(special):
        raise FormatError('a candidate\'s "special" must be an integer')
    return Candidate(entry["id"], special)


_NOT_IDS = '"order" / "approve" must be a list of candidate ids'


def _interned(keys: list[tuple], distinct: Iterable[tuple], ranked: bool,
              built: dict) -> list[Ballot]:
    """The ballot of each key, a tuple of candidate ids, given the
    ``distinct`` keys in their first order: the one in ``built`` for a key
    it holds, and a new one, put in ``built``, for each other distinct key."""
    new = list(filterfalse(built.__contains__, distinct))
    made = typed_ballots(new if ranked else list(map(frozenset, new)), ranked)
    built.update(zip(new, made))
    if len(new) == len(keys):  # each key distinct and new: ``new`` is ``keys``
        return made
    return list(map(built.__getitem__, keys))


def _ballot_entries(doc: dict, section: str, problem: Problem, grouped: bool,
                    interned: tuple[dict, dict]) -> tuple[list, list, list | None]:
    """A section's ballot entries, checked and built as three lists: the
    ballots, their counts (left unexpanded) and their group labels. Each
    entry of the ``grouped`` section needs a string label; another section
    takes none and has None for its labels. Equal "approve" lists share one
    ``Ballot``, kept in ``interned[False]`` by the tuple of their candidate
    ids for the whole document, and so do equal "order" lists, in
    ``interned[True]``; so each distinct ballot is built once, after the
    entries are checked, and ``Profile`` checks its ids once. An entry with
    no key but its list and, in the ``grouped`` section, its label (every
    entry electctl writes) skips the "count" and stray-label lookups."""
    entries = doc.get(section, [])
    if not isinstance(entries, list):
        raise FormatError(f'"{section}" must be a list of ballot objects')
    keys: list[tuple] = []
    distinct: dict[tuple, None] = {}
    ranks = 0
    counts: list[int] = []
    labels: list[str] | None = [] if grouped else None
    plain = 2 if grouped else 1  # the keys of an entry with no "count"
    for entry in entries:
        if not isinstance(entry, dict):
            raise FormatError("each ballot must be an object")
        ranked = "order" in entry
        if ranked == ("approve" in entry):
            raise FormatError('each ballot needs exactly one of "order" / "approve"')
        ids = entry["order"] if ranked else entry["approve"]
        if not isinstance(ids, list):
            raise FormatError(_NOT_IDS)
        key = tuple(ids)
        try:
            distinct[key] = None
        except TypeError:  # an unhashable element, so not a candidate id
            raise FormatError(_NOT_IDS) from None
        if grouped:
            group = entry.get("group")
            if not isinstance(group, str):
                raise FormatError(f'every "{section}" ballot of {problem.value} '
                                  "needs a string group label")
            labels.append(group)
        if len(entry) == plain:
            count = 1
        else:
            if not grouped and entry.get("group") is not None:
                raise FormatError(f'{problem.value} takes no group labels on "{section}" ballots')
            count = entry.get("count", 1)
            if type(count) is not int or count < 1:  # _is_int, inlined in this hot loop
                raise FormatError("ballot count must be a positive integer")
        keys.append(key)
        ranks += ranked
        counts.append(count)
    if 0 < ranks < len(keys):  # mixed kinds, which Profile refuses: interned one at a time
        kinds = ["order" in entry for entry in entries]
        return [_interned([k], [k], r, interned[r])[0] for k, r in zip(keys, kinds)], counts, labels
    ranked = ranks > 0
    return _interned(keys, distinct, ranked, interned[ranked]), counts, labels


def _expand(ballots: list[Ballot], counts: list[int],
            labels: list[str] | None) -> tuple[tuple[Ballot, ...], list[str] | None]:
    if counts.count(1) == len(counts):  # nothing to expand
        return tuple(ballots), labels
    return (tuple(chain.from_iterable(map(repeat, ballots, counts))),
            labels and list(chain.from_iterable(map(repeat, labels, counts))))


def _sections(instance: ControlInstance) -> list[tuple[str, Profile, tuple[str, ...]]]:
    """Each ballot section's key, profile and group labels: a label per
    ballot in the section ``ControlInstance.grouped`` names, none elsewhere."""
    labels = instance.labels or ()
    if instance.pool is None:
        return [("ballots", instance.profile, labels)]
    return [("ballots", instance.profile, ()), ("pool", instance.pool, labels)]


def instance_to_dict(instance: ControlInstance) -> dict:
    doc = _head(instance)
    for key, profile, labels in _sections(instance):
        doc[key] = [_ballot_to_dict(b, lab) for b, lab in zip_longest(profile.ballots, labels)]
    return doc


def _head(instance: ControlInstance) -> dict:
    """The ``instance_to_dict`` document without its ballot sections."""
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
    doc["candidates"] = [{"id": c.id} if c.special_index is None
                         else {"id": c.id, "special": c.special_index}
                         for c in instance.profile.candidates]
    return doc


def instance_from_dict(doc: dict) -> ControlInstance:
    """The instance a document describes. Every malformed document raises
    FormatError, also one that only the model's own checks reject."""
    return _build_source(_instance_from_doc, doc)


def _instance_from_doc(doc: dict) -> ControlInstance:
    _require_format(doc)
    try:
        problem = Problem(doc["problem"])
        rule = VotingRule(doc["rule"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad problem/rule: {exc}") from exc
    tie = TieRule(doc["tie"]) if "tie" in doc else None
    for key in ("k", "limit"):
        if key in doc and not _is_int(doc[key]):
            raise FormatError(f'"{key}" must be an integer')
    entries = doc.get("candidates", [])
    if not isinstance(entries, list):
        raise FormatError('"candidates" must be a list of candidate objects')
    # The section the groups partition, as ControlInstance.grouped names it.
    takes = TAKES[problem]
    grouped = ("pool" if "pool" in takes else "ballots") if "labels" in takes else None
    interned: tuple[dict, dict] = ({}, {})
    main_entries = _ballot_entries(doc, "ballots", problem, grouped == "ballots", interned)
    pool_entries = _ballot_entries(doc, "pool", problem, grouped == "pool", interned)
    check_sizes(len(entries), sum(main_entries[1]) + sum(pool_entries[1]), doc.get("k"))
    candidates = tuple(_candidate_from_dict(entry) for entry in entries)
    ballots, main_labels = _expand(*main_entries)
    pool_ballots, pool_labels = _expand(*pool_entries)
    profile = Profile(candidates, ballots)
    pool = Profile(candidates, pool_ballots) if "pool" in doc else None
    return ControlInstance(
        problem=problem,
        rule=rule,
        profile=profile,
        p=doc.get("p"),
        tie=tie,
        k=doc.get("k"),
        limit=doc.get("limit"),
        labels=pool_labels if grouped == "pool" else main_labels,
        pool=pool,
    )


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
        parts = body.get("parts")
        if not isinstance(parts, list) or not all(
                isinstance(p, list) and all(_is_int(i) for i in p) for p in parts):
            raise FormatError('"parts" must be a list of lists of ballot indices')
        return VoterPartition(tuple(tuple(p) for p in parts))
    if kind == "candidate_partition":
        if not (_is_str_list(body.get("c1")) and _is_str_list(body.get("c2"))):
            raise FormatError('"c1" and "c2" must be lists of candidate ids')
        return CandidatePartition(frozenset(body["c1"]), frozenset(body["c2"]))
    if kind == "group_selection":
        if not _is_str_list(body.get("groups")):
            raise FormatError('"groups" must be a list of group labels')
        return GroupSelection(frozenset(body["groups"]))
    raise FormatError(f"unknown witness type {kind!r}")


def _id_lists(doc: dict, key: str) -> list[list[str]]:
    value = doc.get(key)
    if not isinstance(value, list) or not all(_is_str_list(ids) for ids in value):
        raise FormatError(f'"{key}" must be a list of lists of ids')
    return value


def _build_source(make, *fields):
    try:
        return make(*fields)
    except FormatError:
        raise
    except ValueError as exc:  # from the model's own checks
        raise FormatError(str(exc)) from exc


def x3c_from_dict(doc: dict) -> X3CInstance:
    """An Exact Cover by 3-Sets source: "base" lists the element ids and
    "triples" lists each triple as a list of element ids."""
    _require_format(doc)
    if not _is_str_list(doc.get("base")):
        raise FormatError('"base" must be a list of element ids')
    triples = _id_lists(doc, "triples")
    return _build_source(X3CInstance, tuple(doc["base"]), tuple(frozenset(t) for t in triples))


def cubic_vc_from_dict(doc: dict) -> CubicGraphVC:
    """A cubic vertex cover source: "vertices" lists the vertex ids, "edges"
    lists each edge as a list of two vertex ids, and "k" is the cover size."""
    _require_format(doc)
    if not _is_str_list(doc.get("vertices")):
        raise FormatError('"vertices" must be a list of vertex ids')
    edges = _id_lists(doc, "edges")
    if not _is_int(doc.get("k")):
        raise FormatError('"k" must be an integer')
    return _build_source(CubicGraphVC, tuple(doc["vertices"]),
                         tuple(frozenset(e) for e in edges), doc["k"])


def _read(build, text: str):
    """``build(load_document(text))`` with the cyclic collector paused, and
    left enabled or disabled as it was found, also when either raises.
    Reading a document allocates many containers and makes no cycles, so
    reference counting frees all of them as before; the pause only keeps
    the allocations from setting off collections. The collector is
    process-wide, so the pause is too."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return build(load_document(text))
    finally:
        if enabled:
            gc.enable()


def parse_instance(text: str) -> ControlInstance:
    return _read(instance_from_dict, text)


def serialize_instance(instance: ControlInstance) -> str:
    return json.dumps(instance_to_dict(instance), indent=1) + "\n"


def parse_witness(text: str) -> Witness:
    return _read(witness_from_dict, text)


def serialize_witness(witness: Witness) -> str:
    return json.dumps(witness_to_dict(witness), indent=1) + "\n"


# The canonical encoding: json.dumps(..., sort_keys=True, separators=(",", ":")).
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _section_text(profile: Profile, labels: tuple[str, ...], ids: dict[str, str] | None) -> str:
    """The canonical text of one section's ``instance_to_dict`` entries.
    ``labels`` gives each ballot's group label, or is empty for a section
    without groups; ``ids`` maps each candidate id to its encoded text, or
    is None when every id encodes as itself in quotes. A labelled entry is
    encoded from ``_ballot_to_dict``, once per distinct (ballot, label)
    entry. An unlabelled entry is its head, its list and "}", and the
    entries are joined at C level, so no entry allocates a container that
    the cyclic collector tracks. The list of each distinct ballot is built
    once, by looking its ids up in ``ids``, or, when ``ids`` is None, as
    the ids joined by '","' in quotes and brackets."""
    ballots = profile.ballots
    if not ballots:
        return "[]"
    ranked = profile.kind == "linear"
    head = '{"order":' if ranked else '{"approve":'
    by_id = dict(zip(map(id, ballots), ballots))
    if labels:
        keys = list(zip(map(id, ballots), labels))
        made = {(i, lab): _encode(_ballot_to_dict(by_id[i], lab)) for i, lab in set(keys)}
        return "[" + ",".join(map(made.__getitem__, keys)) + "]"
    distinct = by_id.values()
    lists = map(_ORDER, distinct) if ranked else map(sorted, map(_APPROVALS, distinct))
    if ids is None:
        made = dict(zip(by_id, map('["{}"]'.format, map('","'.join, lists))))
        if not ranked:  # an empty approval list joins to "" as the list of the id "" does
            made.update(dict.fromkeys(compress(by_id, map(not_, map(_APPROVALS, distinct))), "[]"))
    else:
        made = {key: "[" + ",".join(map(ids.__getitem__, ids_)) + "]"
                for key, ids_ in zip(by_id, lists)}
    return "[" + head + ("}," + head).join(map(made.__getitem__, map(id, ballots))) + "}]"


def instance_digest(instance: ControlInstance) -> str:
    """The sha256 hex digest of the instance's canonical document: the
    ``instance_to_dict`` document (one entry per ballot, counts expanded) as
    compact JSON with sorted keys. The text is assembled here without
    building the ballot entries: each section's come from ``_section_text``,
    with each candidate id encoded once, and the keys and the ``_head``
    values go through the same encoder."""
    ids = {cid: _encode(cid) for cid in instance.profile.candidate_ids}
    if all(text[1:-1] == cid for cid, text in ids.items()):
        ids = None
    texts = {key: _encode(value) for key, value in _head(instance).items()}
    for key, profile, labels in _sections(instance):
        texts[key] = _section_text(profile, labels, ids)
    canonical = "{" + ",".join(_encode(key) + ":" + texts[key] for key in sorted(texts)) + "}"
    return hashlib.sha256(canonical.encode()).hexdigest()
