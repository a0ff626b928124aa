"""Enumeration budgets, overridable through the environment.

Every budget bounds a closed-form size of the input and is read, on every
call, by the one place that checks it.  Memos sit behind those checks and
are keyed on the mathematics alone, so a budget changed mid-process applies
at once.
"""

import os

from .errors import InvalidInputError

# Automorphisms per prime block of Aut(N) or of its Sylow subgroup (element
# pools, `spectrum` and its `--dump-aut`), compared with the closed-form size
# before the block is built or looked up.
DEFAULT_AUT_CANDIDATE_CAP = 1 << 21

# Above this many elements Hol(N) is not scanned in full; searches fall back
# to the Sylow-restricted path, whose pool this also bounds.
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
