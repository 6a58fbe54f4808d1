"""Canonical JSON serialization.

Every document carries a ``schema`` version field and serializes through
``dumps_canonical`` (sorted keys, fixed separators) so that identical
objects produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any

from .structures import FiniteStructure, Vocabulary

STRUCTURE_SCHEMA = "amalgam/structure@1"


def dumps_canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def vocabulary_to_dict(v: Vocabulary) -> dict:
    return {
        "relations": {name: arity for name, arity in v.relations},
        "functions": {name: arity for name, arity in v.functions},
        "constants": list(v.constants),
        "index_bound": v.index_bound,
    }


def vocabulary_from_dict(doc: dict) -> Vocabulary:
    return Vocabulary.make(
        relations=doc.get("relations", {}),
        functions=doc.get("functions", {}),
        constants=doc.get("constants", []),
        index_bound=doc.get("index_bound"),
    )


def structure_to_dict(M: FiniteStructure) -> dict:
    return {
        "schema": STRUCTURE_SCHEMA,
        "vocabulary": vocabulary_to_dict(M.vocabulary),
        "universe": list(M.universe),
        "relations": {
            name: sorted(list(t) for t in tuples)
            for name, tuples in sorted(M.relations.items())
        },
        "functions": {
            name: sorted([list(args), value] for args, value in table.items())
            for name, table in sorted(M.functions.items())
        },
        "constants": dict(sorted(M.constants.items())),
    }


def structure_from_dict(doc: dict) -> FiniteStructure:
    if doc.get("schema") != STRUCTURE_SCHEMA:
        raise ValueError(f"unexpected schema {doc.get('schema')!r}")
    vocabulary = vocabulary_from_dict(doc["vocabulary"])
    return FiniteStructure(
        vocabulary,
        tuple(doc["universe"]),
        {name: {tuple(t) for t in tuples}
         for name, tuples in doc.get("relations", {}).items()},
        {name: {tuple(args): value for args, value in entries}
         for name, entries in doc.get("functions", {}).items()},
        dict(doc.get("constants", {})),
    )

