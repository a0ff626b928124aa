"""Enumeration budgets, overridable through the environment."""

import os

from .errors import InvalidInputError

# Candidates examined per prime block when automorphisms are enumerated in
# full, which only the element pools and `spectrum --dump-aut` need; orders
# and generators of Aut(N) come from closed forms.
DEFAULT_AUT_CANDIDATE_CAP = 1 << 21

# Above this many elements Hol(N) is not scanned in full; searches fall back
# to the Sylow-restricted path.
DEFAULT_FULL_HOL_CAP = 1 << 16


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw, 0)
    except ValueError:
        raise InvalidInputError(f"{name}={raw!r} is not an integer") from None
    if value <= 0:
        raise InvalidInputError(f"{name}={raw!r} must be positive")
    return value


def aut_candidate_cap() -> int:
    return _env_int("HOLOBRACE_CAP", DEFAULT_AUT_CANDIDATE_CAP)


def full_hol_cap() -> int:
    return _env_int("HOLOBRACE_HOL_CAP", DEFAULT_FULL_HOL_CAP)
