"""The JSON instance file format.

A single document with 1-based variable indices:

    {"n": 4, "I": [[1], [3]], "J": [[1, 4]]}

``J`` may be empty.  Canonical output sorts each support ascending and the
generator lists in canonical (degree, support) order, so parsing the dumped
:func:`instance_to_json` round-trips losslessly.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import InputError
from .monomials import Monomial, QuotientInstance, check_variable_count, support_of, validate_pair


def _parse_generators(n: int, raw: Any, key: str) -> list[int]:
    if not isinstance(raw, list):
        raise InputError("expected a list of generator supports", location=key)
    gens = []
    for idx, support in enumerate(raw):
        loc = f"{key}[{idx}]"
        if not isinstance(support, list):
            raise InputError("expected a list of variable indices", location=loc)
        try:
            gens.append(Monomial.from_support(n, support).mask)
        except InputError as exc:
            raise InputError(str(exc), location=loc) from None
    return gens


def parse_instance(text: str) -> QuotientInstance:
    """Parse and validate an instance document (str, bytes or bytearray); errors carry a field location."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise InputError(f"expected the instance document as str, bytes or bytearray, got {text!r}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("instance file must be a JSON object")
    for key in ("n", "I", "J"):
        if key not in doc:
            raise InputError(f"missing key {key!r}")
    n = doc["n"]
    check_variable_count(n, location="n")
    gens_i = _parse_generators(n, doc["I"], "I")
    gens_j = _parse_generators(n, doc["J"], "J")
    return validate_pair(n, gens_i, gens_j)


def instance_to_json(inst: QuotientInstance) -> dict:
    """Canonical JSON form: minimalized generators, supports ascending."""
    return {
        "n": inst.n,
        "I": [list(support_of(g)) for g in inst.gens_i],
        "J": [list(support_of(g)) for g in inst.gens_j],
    }
