"""Deterministic, seed-driven device fault injection.

The paper's failure model is deliberately benign (Section 2: wear only
stretches program/erase times, "existing data will remain readable").  A
production-scale array must also survive the faults real Flash throws at
a controller: transient program and erase failures, bit flips on the
read path, and *grown* bad blocks — erase blocks that stop erasing
altogether, at a rate that climbs with accumulated wear.

:class:`FaultPlan` describes the fault environment as a set of rates
plus a seed; :class:`FaultInjector` turns the plan into concrete
per-operation decisions.  Decisions are pure functions of
``(seed, fault kind, per-kind operation index)`` via a keyed hash, so

* the same plan replayed over the same operation sequence produces a
  byte-identical fault schedule (no hidden RNG state, no dependence on
  Python's hash randomisation), and
* fault-free operations pay nothing — a zero plan makes every decision
  method short-circuit to "no fault".

The injector is consulted by :class:`~repro.flash.array.FlashArray`
(page granularity) without changing its fault-free signatures.  The
defences — ECC, program/erase retry, bad-block retirement — live in
:mod:`repro.faults.ecc`, :mod:`repro.faults.badblocks` and the
controller path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

__all__ = ["FaultPlan", "FaultInjector", "FaultStats", "FaultEvent"]


@dataclass(frozen=True)
class FaultPlan:
    """Rates (all probabilities per operation or per bit) plus a seed.

    An all-zero plan is the paper's fault model: nothing ever fails.
    ``validate`` enforces the same discipline as the config objects.
    """

    seed: int = 0
    #: Probability a single program attempt fails transiently (retry
    #: succeeds with an independent draw).
    transient_program_rate: float = 0.0
    #: Probability an erase attempt fails transiently.
    transient_erase_rate: float = 0.0
    #: Probability an erase fails permanently, retiring the block.
    permanent_erase_rate: float = 0.0
    #: Per-bit probability that a read returns a flipped bit (transient
    #: read disturb; the stored cells are unharmed).
    read_flip_rate: float = 0.0
    #: Per-page-read probability of a two-bit burst — detectable but not
    #: correctable by SEC-DED.
    double_flip_rate: float = 0.0
    #: Baseline per-erase probability that the block *grows* bad.  The
    #: effective probability is scaled by wear:
    #: ``rate * (1 + grown_bad_wear_factor * cycles/endurance)``.
    grown_bad_rate: float = 0.0
    #: Wear acceleration of the grown-bad rate (dimensionless).
    grown_bad_wear_factor: float = 1000.0

    _RATES = ("transient_program_rate", "transient_erase_rate",
              "permanent_erase_rate", "read_flip_rate",
              "double_flip_rate", "grown_bad_rate")

    def validate(self) -> None:
        for name in self._RATES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if self.grown_bad_wear_factor < 0:
            raise ValueError("grown_bad_wear_factor cannot be negative")
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")

    def is_zero(self) -> bool:
        """True when the plan can never produce a fault."""
        return all(getattr(self, name) == 0.0 for name in self._RATES)

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        """The paper's failure model: no device faults at all."""
        return cls()

    @classmethod
    def light(cls, seed: int = 0) -> "FaultPlan":
        """A realistic late-life NOR array: rare transients, rare flips."""
        return cls(seed=seed, transient_program_rate=1e-5,
                   transient_erase_rate=1e-4, read_flip_rate=1e-9,
                   grown_bad_rate=1e-6)

    @classmethod
    def harsh(cls, seed: int = 0) -> "FaultPlan":
        """An abusive environment for robustness testing."""
        return cls(seed=seed, transient_program_rate=2e-3,
                   transient_erase_rate=5e-2, permanent_erase_rate=2e-3,
                   read_flip_rate=2e-7, double_flip_rate=0.0,
                   grown_bad_rate=5e-3)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault or defence action, for tracing and tests."""

    kind: str
    segment: int
    op_index: int
    detail: str = ""


@dataclass
class FaultStats:
    """Counters for injected faults and the defences that absorbed them."""

    program_retries: int = 0
    program_retry_exhausted: int = 0
    erase_retries: int = 0
    permanent_erase_failures: int = 0
    grown_bad_blocks: int = 0
    bad_blocks_retired: int = 0
    read_bit_flips: int = 0
    ecc_corrected_reads: int = 0
    ecc_corrected_bits: int = 0
    ecc_uncorrectable_reads: int = 0
    #: Reads returned with flipped bits while ECC was disabled.
    silent_corrupt_reads: int = 0
    endurance_overshoots: int = 0
    #: Bit flips injected into out-of-band (spare-area) reads during a
    #: recovery scan; the OOB CRC detects these and demotes the copy.
    oob_bit_flips: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultInjector:
    """Turns a :class:`FaultPlan` into deterministic per-op decisions.

    Each fault kind has its own monotonically increasing operation
    index; a decision for operation *i* of kind *k* is derived from
    ``blake2b(seed:k:i)`` alone, so two runs issuing the same operation
    sequence see the same faults, independent of everything else.
    Injected faults are appended to :attr:`event_log` — two logs being
    equal is the test-suite's definition of "byte-identical schedule".
    """

    def __init__(self, plan: FaultPlan) -> None:
        plan.validate()
        self.plan = plan
        self.active = not plan.is_zero()
        #: Per-kind operation counters (program ops, erase ops, reads).
        self.program_ops = 0
        self.erase_ops = 0
        self.read_ops = 0
        self.oob_ops = 0
        #: Injected faults in order: (kind, op_index, extra) tuples.
        self.event_log: List[Tuple] = []

    # ------------------------------------------------------------------
    # Deterministic uniform draws
    # ------------------------------------------------------------------

    def _unit(self, kind: str, index: int, salt: int = 0) -> float:
        """A uniform [0, 1) draw keyed by (seed, kind, index, salt)."""
        key = f"{self.plan.seed}:{kind}:{index}:{salt}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    def _draw_int(self, kind: str, index: int, bound: int,
                  salt: int = 0) -> int:
        return int(self._unit(kind, index, salt) * bound) % bound

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def program_fails(self, segment: int) -> bool:
        """Decide one program attempt; True means a transient failure."""
        if not self.active:
            return False
        index = self.program_ops
        self.program_ops += 1
        if self.plan.transient_program_rate <= 0.0:
            return False
        failed = self._unit("program", index) < \
            self.plan.transient_program_rate
        if failed:
            self.event_log.append(("program_fail", index, segment))
        return failed

    def erase_verdict(self, segment: int, wear_fraction: float) -> str:
        """Decide one erase attempt.

        Returns ``"ok"``, ``"transient"`` (retry may succeed),
        ``"permanent"`` (the block failed outright) or ``"grown_bad"``
        (wear-correlated retirement).  Each attempt consumes one erase
        op index, so retries get independent draws.
        """
        if not self.active:
            return "ok"
        plan = self.plan
        index = self.erase_ops
        self.erase_ops += 1
        draw = self._unit("erase", index)
        if draw < plan.permanent_erase_rate:
            self.event_log.append(("erase_permanent", index, segment))
            return "permanent"
        grown_p = plan.grown_bad_rate * \
            (1.0 + plan.grown_bad_wear_factor * max(0.0, wear_fraction))
        if self._unit("grown", index) < min(1.0, grown_p):
            self.event_log.append(("grown_bad", index, segment))
            return "grown_bad"
        if draw < plan.permanent_erase_rate + plan.transient_erase_rate:
            self.event_log.append(("erase_transient", index, segment))
            return "transient"
        return "ok"

    def corrupt_read(self, data: bytes,
                     segment: int = -1) -> Tuple[bytes, int]:
        """Maybe flip bits in a copy of ``data``; returns (data, flips).

        The per-bit flip rate is aggregated to one draw per read (flip
        probabilities are tiny, so at most one independent single-bit
        flip per read is an excellent approximation); a separate draw
        models an uncorrectable two-bit burst.
        """
        if not self.active:
            return data, 0
        plan = self.plan
        index = self.read_ops
        self.read_ops += 1
        if plan.read_flip_rate <= 0.0 and plan.double_flip_rate <= 0.0:
            return data, 0
        nbits = len(data) * 8
        if nbits == 0:
            return data, 0
        flip_bits: List[int] = []
        page_p = min(1.0, plan.read_flip_rate * nbits)
        if page_p > 0.0 and self._unit("read", index) < page_p:
            flip_bits.append(self._draw_int("readpos", index, nbits))
        if plan.double_flip_rate > 0.0 and \
                self._unit("read2", index) < plan.double_flip_rate:
            first = self._draw_int("read2pos", index, nbits)
            second = self._draw_int("read2pos", index, nbits, salt=1)
            if second == first:
                second = (second + 1) % nbits
            flip_bits.extend(b for b in (first, second)
                             if b not in flip_bits)
        if not flip_bits:
            return data, 0
        corrupted = bytearray(data)
        for bit in flip_bits:
            corrupted[bit // 8] ^= 1 << (bit % 8)
        self.event_log.append(("read_flip", index, segment,
                               tuple(sorted(flip_bits))))
        return bytes(corrupted), len(flip_bits)

    def corrupt_oob(self, raw: bytes,
                    segment: int = -1) -> Tuple[bytes, int]:
        """Maybe flip a bit in a copy of an out-of-band read.

        The spare area shares the data cells' per-bit flip rate, but its
        draws come from a dedicated ``oob`` stream with its own counter:
        scanning the array during recovery must not shift the fault
        schedule the data path would otherwise see.
        """
        if not self.active:
            return raw, 0
        plan = self.plan
        index = self.oob_ops
        self.oob_ops += 1
        if plan.read_flip_rate <= 0.0 or not raw:
            return raw, 0
        nbits = len(raw) * 8
        page_p = min(1.0, plan.read_flip_rate * nbits)
        if self._unit("oob", index) >= page_p:
            return raw, 0
        bit = self._draw_int("oobpos", index, nbits)
        corrupted = bytearray(raw)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        self.event_log.append(("oob_flip", index, segment, bit))
        return bytes(corrupted), 1

    # ------------------------------------------------------------------

    def schedule_digest(self) -> str:
        """Stable digest of the fault schedule produced so far."""
        h = hashlib.blake2b(digest_size=16)
        for event in self.event_log:
            h.update(repr(event).encode())
        return h.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultInjector(seed={self.plan.seed}, "
                f"{len(self.event_log)} faults over "
                f"{self.program_ops}p/{self.erase_ops}e/"
                f"{self.read_ops}r ops)")
