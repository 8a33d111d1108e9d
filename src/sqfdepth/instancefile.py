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

from .errors import InputError, ValidationError
from .monomials import Monomial, QuotientInstance, validate_pair

# Every computation walks the 2^n supports of the ambient ring.
MAX_VARIABLES = 20


def _parse_generators(n: int, raw: Any, key: str) -> list[Monomial]:
    if not isinstance(raw, list):
        raise ValidationError("expected a list of generator supports", location=key)
    gens = []
    for idx, support in enumerate(raw):
        loc = f"{key}[{idx}]"
        if not isinstance(support, list):
            raise ValidationError("expected a list of variable indices", location=loc)
        try:
            gens.append(Monomial.from_support(n, support))
        except InputError as exc:
            raise ValidationError(str(exc), location=loc) from None
    return gens


def parse_instance(text: str) -> QuotientInstance:
    """Parse and validate an instance document; errors carry a field location."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValidationError("instance file must be a JSON object")
    for key in ("n", "I", "J"):
        if key not in doc:
            raise ValidationError(f"missing key {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError("n must be a positive integer", location="n")
    if n > MAX_VARIABLES:
        raise ValidationError(f"n = {n} exceeds the supported limit of {MAX_VARIABLES}", location="n")
    gens_i = _parse_generators(n, doc["I"], "I")
    gens_j = _parse_generators(n, doc["J"], "J")
    return validate_pair(n, gens_i, gens_j)


def instance_to_json(inst: QuotientInstance) -> dict:
    """Canonical JSON form: minimalized generators, supports ascending."""
    return {
        "n": inst.n,
        "I": [list(g.support) for g in inst.ideal_i.generators],
        "J": [list(g.support) for g in inst.ideal_j.generators],
    }
