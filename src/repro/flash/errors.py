"""Exception hierarchy for the Flash substrate."""

__all__ = [
    "FlashError",
    "ProgramError",
    "EraseError",
    "AddressError",
    "EnduranceExceeded",
    "TransientProgramError",
    "TransientEraseError",
    "BadBlockError",
    "UncorrectableDataError",
]


class FlashError(Exception):
    """Base class for all Flash device errors."""


class ProgramError(FlashError):
    """Raised when a program operation violates write-once semantics.

    Flash cells can only be cleared (1 -> 0) by programming; restoring a
    bit to 1 requires erasing the whole block (Section 2).
    """


class EraseError(FlashError):
    """Raised when an erase targets an invalid or busy block."""


class AddressError(FlashError, IndexError):
    """Raised for out-of-range chip, block, page or byte addresses."""


class EnduranceExceeded(FlashError):
    """Raised when a block is cycled past its guaranteed endurance.

    The paper notes (Section 2) that real parts usually keep working far
    past the rated cycle count — the "failure" is only that operations may
    exceed their specified time — so raising is optional; by default the
    model records the overshoot and keeps going.  Set
    ``EnvyConfig.strict_endurance`` (or ``strict_endurance`` on the
    array) to turn the overshoot into this exception.
    """


class TransientProgramError(ProgramError):
    """An injected program failure; an independent retry may succeed.

    Raised by the device models when a :class:`~repro.faults.plan.
    FaultInjector` fails a program attempt (and, at array level, only
    after the bounded retry budget is exhausted).
    """


class TransientEraseError(EraseError):
    """An injected erase failure; an independent retry may succeed."""


class BadBlockError(FlashError):
    """A block failed permanently and must be retired.

    Covers both outright permanent erase failures and wear-correlated
    *grown* bad blocks.  ``segment`` (or ``block``) identifies the
    failed unit; ``reason`` is the injector's verdict.
    """

    def __init__(self, unit: int, reason: str = "permanent") -> None:
        super().__init__(f"block {unit} failed permanently ({reason}); "
                         f"retire it")
        self.unit = unit
        self.reason = reason


class UncorrectableDataError(FlashError):
    """A read returned data whose corruption exceeds ECC's reach."""
