"""Exception taxonomy shared by all modules."""


class HolobraceError(Exception):
    """Base class for errors raised by this package."""


class InvalidInputError(HolobraceError, ValueError):
    """Malformed or mismatched arguments (wrong group, bad residues, ...)."""


class CapacityError(HolobraceError, RuntimeError):
    """An enumeration would exceed its configured budget.

    Carries enough context to name the offending block so callers can decide
    whether to raise the cap or switch strategy.
    """

    def __init__(self, message: str, *, needed: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.needed = needed
        self.cap = cap

    def describe(self) -> str:
        """The message, ending `(needed X, cap Y)` when both are known."""
        detail = "" if None in (self.needed, self.cap) else f" (needed {self.needed}, cap {self.cap})"
        return f"{self}{detail}"


class InternalConsistencyError(HolobraceError, RuntimeError):
    """A mathematically guaranteed identity failed; signals a construction bug."""
