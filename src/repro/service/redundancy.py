"""Cross-bank redundancy: survive whole-bank loss, rebuild online.

PR 6 striped one logical page space over independent eNVy banks, which
made the stripe the failure domain: lose one bank and its pages are
gone.  This module holds the redundancy layer that removes that single
point of failure; the :class:`~repro.service.shard.ShardRouter` carries
one of its policies and consults it for every placement:

* :class:`RedundancyPolicy` — pluggable placement math.  ``none``
  keeps the PR-6 behaviour (full capacity, zero protection);
  ``mirror`` / ``mirror:k`` keeps ``k`` byte-identical copies of every
  logical page on ``k`` distinct banks (capacity divides by ``k``,
  any ``k-1`` bank losses survivable); ``parity`` groups the banks
  into RAID-5-style rotated stripe groups — each stripe holds ``N-1``
  data pages plus one XOR parity page, parity rotating across banks so
  no bank becomes the parity bottleneck (capacity ``(N-1)/N``, one
  bank loss survivable).
* :func:`plan_rebalance` — greedy hot/cold swaps for the router's
  remap overlay (SoftWear-style software remapping, no hardware
  support), flattening per-bank load skew.
* :func:`io_plan` — the one choice of the slots a request reads and
  programs, given the bank states; only healthy banks are read
  (:func:`healthy_group`).  The schedule expander charges, and direct
  access reads, XORs and programs, exactly these slots.
* :class:`RebuildScheduler` — repopulates a replacement bank from its
  healthy peers in rate-limited batches while the service keeps
  serving, then verifies the rebuilt bank against a fresh
  reconstruction.  Each rebuild plan entry carries candidate groups
  (one per mirror copy, or the whole stripe); :meth:`RebuildScheduler.
  sources` picks the first healthy one for both rebuild drivers.

The policies are pure placement arithmetic — no controller references,
picklable, and deterministic — so the service front-end can expand a
schedule into per-bank slices (charging every extra program and read
through the existing cost model) and still fan the banks out across
worker processes exactly as before.

:class:`DegradedModeError` is the layer's only failure mode: it is
raised when an operation's redundancy is exhausted (every placement of
a page is on a dead bank, or a rebuild has no healthy source), never
merely because a bank died.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

if TYPE_CHECKING:
    from .shard import ShardRouter

__all__ = ["DegradedModeError", "RedundancyPolicy", "NoRedundancy",
           "MirrorPolicy", "ParityPolicy", "make_policy", "healthy_group",
           "io_plan", "RebuildScheduler", "plan_rebalance",
           "BANK_HEALTHY", "BANK_DEAD", "BANK_REBUILDING"]

#: One placement: ``(bank_index, local_page)``.
Slot = Tuple[int, int]

# Bank lifecycle states tracked by the service front-end.
BANK_HEALTHY = "healthy"
BANK_DEAD = "dead"
BANK_REBUILDING = "rebuilding"


class DegradedModeError(RuntimeError):
    """Redundancy is exhausted: no surviving placement can serve this.

    Raised only when no copy (or reconstruction set) of a logical page
    is left on healthy banks — a single bank loss under mirror or
    parity never raises this; it merely degrades the affected pages.
    """


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------

class RedundancyPolicy:
    """Placement math shared by every redundancy scheme.

    A policy sees the physical geometry — ``num_banks`` banks of
    ``pages_per_bank`` local pages each — and decides how many logical
    pages the service presents (:meth:`usable_pages`), where each
    logical page's primary copy lives (:meth:`data_slot`), which extra
    slots a write must also program (:meth:`extra_slots`), and how a
    read is served when the primary bank is dead
    (:meth:`read_groups`).  All methods are pure functions of their
    arguments.
    """

    name = "abstract"
    #: Physical programs per logical write (primary included).
    write_fanout = 1
    #: Simultaneous whole-bank losses survivable without data loss.
    survivable = 0

    def validate(self, num_banks: int, pages_per_bank: int) -> None:
        raise NotImplementedError

    def usable_pages(self, num_banks: int, pages_per_bank: int) -> int:
        raise NotImplementedError

    def data_slot(self, page: int, num_banks: int, pages_per_bank: int,
                  placement: str) -> Slot:
        raise NotImplementedError

    def extra_slots(self, slot: Slot, num_banks: int,
                    pages_per_bank: int) -> List[Slot]:
        """Slots programmed *in addition to* the primary on a write."""
        raise NotImplementedError

    def read_groups(self, slot: Slot, num_banks: int,
                    pages_per_bank: int) -> List[List[Slot]]:
        """Fallback source groups for a read whose primary is dead.

        Each group is sufficient on its own: a mirror group is one
        replica slot (read it directly), a parity group is the full
        set of surviving stripe members (XOR them).  Groups are tried
        in order; a group is usable only if every slot in it is on a
        healthy bank (:func:`healthy_group`).
        """
        raise NotImplementedError

    def page_of_slot(self, slot: Slot, num_banks: int,
                     pages_per_bank: int, placement: str
                     ) -> Optional[int]:
        """The logical page whose *content* slot ``slot`` holds.

        Replica slots answer with the mirrored page; parity and unused
        slots answer ``None`` (their content is not any single page).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class MirrorPolicy(RedundancyPolicy):
    """``copies`` byte-identical copies on ``copies`` distinct banks.

    Each bank's local page space is cut into ``copies`` equal regions
    of ``R = pages_per_bank // copies`` pages.  A logical page whose
    primary copy is region 0 of bank ``b`` keeps replica ``i`` in
    region ``i`` of bank ``(b + i) % N`` — a rotation, so every bank
    holds an equal share of primaries and replicas and replica traffic
    spreads instead of pairing banks off.
    """

    name = "mirror"

    def __init__(self, copies: int = 2) -> None:
        if copies < 2:
            raise ValueError("mirroring needs at least two copies")
        self.copies = copies
        self.write_fanout = copies
        self.survivable = copies - 1
        if copies > 2:
            self.name = f"mirror:{copies}"

    def _region(self, pages_per_bank: int) -> int:
        return pages_per_bank // self.copies

    def validate(self, num_banks: int, pages_per_bank: int) -> None:
        if num_banks < self.copies:
            raise ValueError(
                f"{self.copies}-way mirroring needs at least "
                f"{self.copies} banks (got {num_banks})")
        if self._region(pages_per_bank) < 1:
            raise ValueError(
                f"banks of {pages_per_bank} pages cannot hold "
                f"{self.copies} mirror regions")

    def usable_pages(self, num_banks: int, pages_per_bank: int) -> int:
        return num_banks * self._region(pages_per_bank)

    def data_slot(self, page: int, num_banks: int, pages_per_bank: int,
                  placement: str) -> Slot:
        region = self._region(pages_per_bank)
        if placement == "ranged":
            return page // region, page % region
        return page % num_banks, page // num_banks

    def extra_slots(self, slot: Slot, num_banks: int,
                    pages_per_bank: int) -> List[Slot]:
        bank, local = slot
        region = self._region(pages_per_bank)
        return [((bank + i) % num_banks, i * region + local)
                for i in range(1, self.copies)]

    def read_groups(self, slot: Slot, num_banks: int,
                    pages_per_bank: int) -> List[List[Slot]]:
        return [[replica] for replica in
                self.extra_slots(slot, num_banks, pages_per_bank)]

    def page_of_slot(self, slot: Slot, num_banks: int,
                     pages_per_bank: int, placement: str
                     ) -> Optional[int]:
        bank, local = slot
        region = self._region(pages_per_bank)
        copy_index = local // region
        if copy_index >= self.copies:
            return None  # unused tail when pages_per_bank % copies != 0
        primary_bank = (bank - copy_index) % num_banks
        primary_local = local - copy_index * region
        if placement == "ranged":
            return primary_bank * region + primary_local
        return primary_local * num_banks + primary_bank


class NoRedundancy(MirrorPolicy):
    """Full capacity, zero protection: the PR-6 placement unchanged.

    One copy is one-way mirroring: a single region per bank, no extra
    slots and no fallback reads.
    """

    name = "none"

    def __init__(self) -> None:
        self.copies = 1


class ParityPolicy(RedundancyPolicy):
    """Single-parity stripe groups with rotating parity (RAID-5 style).

    Stripe ``s`` consists of local page ``s`` on every bank: ``N - 1``
    data pages plus one XOR parity page on bank ``s % N`` (rotation
    spreads the parity update traffic).  Any single bank loss is
    survivable — a missing page is the XOR of its surviving stripe
    members.  Requires striped placement: stripes already interleave
    consecutive logical pages across banks, so a separate ranged
    variant would break the equal-local-page stripe invariant.
    """

    name = "parity"
    write_fanout = 2
    survivable = 1

    def validate(self, num_banks: int, pages_per_bank: int) -> None:
        if num_banks < 3:
            raise ValueError(
                f"parity striping needs at least 3 banks (got "
                f"{num_banks}; with 2 banks use mirror)")

    def usable_pages(self, num_banks: int, pages_per_bank: int) -> int:
        return (num_banks - 1) * pages_per_bank

    def data_slot(self, page: int, num_banks: int, pages_per_bank: int,
                  placement: str) -> Slot:
        stripe, member = divmod(page, num_banks - 1)
        parity = stripe % num_banks
        bank = member if member < parity else member + 1
        return bank, stripe

    def extra_slots(self, slot: Slot, num_banks: int,
                    pages_per_bank: int) -> List[Slot]:
        _, stripe = slot
        return [(stripe % num_banks, stripe)]

    def read_groups(self, slot: Slot, num_banks: int,
                    pages_per_bank: int) -> List[List[Slot]]:
        bank, stripe = slot
        return [[(peer, stripe) for peer in range(num_banks)
                 if peer != bank]]

    def page_of_slot(self, slot: Slot, num_banks: int,
                     pages_per_bank: int, placement: str
                     ) -> Optional[int]:
        bank, stripe = slot
        parity = stripe % num_banks
        if bank == parity:
            return None
        member = bank if bank < parity else bank - 1
        return stripe * (num_banks - 1) + member


def make_policy(spec: str) -> RedundancyPolicy:
    """Parse a redundancy spec: ``none``, ``mirror``, ``mirror:k``,
    ``parity``."""
    if spec == "none":
        return NoRedundancy()
    if spec == "parity":
        return ParityPolicy()
    if spec == "mirror":
        return MirrorPolicy(2)
    if spec.startswith("mirror:"):
        try:
            copies = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad mirror spec {spec!r}") from None
        return MirrorPolicy(copies)
    raise ValueError(
        f"unknown redundancy {spec!r} (expected none, mirror, "
        f"mirror:<copies> or parity)")


# ----------------------------------------------------------------------
# The I/O plan of a request
# ----------------------------------------------------------------------

def healthy_group(groups: Sequence[Sequence[Slot]],
                  states: Sequence[str]) -> Optional[Sequence[Slot]]:
    """The first candidate group whose banks are all healthy, or None.

    The trust rule of the whole layer: a rebuilding bank takes writes
    but may still hold blank or stale slots until its rebuild
    verifies, so nothing is read from it."""
    for group in groups:
        for bank, _ in group:
            if states[bank] != BANK_HEALTHY:
                break
        else:
            return group
    return None


def io_plan(router: ShardRouter, states: Sequence[str], page: int,
            is_write: bool) -> Tuple[Sequence[Slot], List[Slot], bool]:
    """``(reads, programs, degraded)`` of one request to ``page``.

    A read reads its primary, or else the first healthy read group
    (one mirror copy, or the XOR of the rest of the stripe), and is
    degraded when its primary is not healthy.  A write programs every
    placement not on a dead bank, primary first, and is degraded when
    its primary is dead.  A parity write whose parity bank is not dead
    also reads what the new parity folds: old data + old parity when
    both banks are healthy (read-modify-write), else the stripe's
    other data members (reconstruct-write); the new parity is the XOR
    of those reads and the new content.  Raises
    :class:`DegradedModeError` when no healthy group serves.
    """
    if not is_write:
        primary = router.route(page)
        if states[primary[0]] == BANK_HEALTHY:
            return [primary], [], False
        reads = healthy_group(router.read_groups(page), states)
        if reads is None:
            raise DegradedModeError(
                f"page {page}: primary bank {primary[0]} is "
                f"{states[primary[0]]} and no fallback group is healthy "
                f"— redundancy exhausted")
        return reads, [], True
    slots = router.placements(page)
    primary_bank, stripe = slots[0]
    parity_bank = slots[-1][0]
    fold = (router.policy.name == "parity"
            and states[parity_bank] != BANK_DEAD)
    if fold and states[primary_bank] == states[parity_bank] == BANK_HEALTHY:
        return slots, slots, False              # read-modify-write
    programs = [slot for slot in slots if states[slot[0]] != BANK_DEAD]
    if not programs:
        raise DegradedModeError(
            f"page {page}: every placement {slots} is on a dead bank — "
            f"redundancy exhausted")
    reads: Sequence[Slot] = []
    if fold:                                    # reconstruct-write
        reads = healthy_group([[
            (peer, stripe) for peer in range(router.num_shards)
            if peer != primary_bank and peer != parity_bank]], states)
        if reads is None:
            raise DegradedModeError(
                f"page {page}: stripe {stripe} has an unhealthy member "
                f"besides its data and parity banks — the parity cannot "
                f"be folded")
    return reads, programs, states[primary_bank] == BANK_DEAD


# ----------------------------------------------------------------------
# Hot-page rebalancing
# ----------------------------------------------------------------------

def plan_rebalance(router: ShardRouter,
                   page_loads: Mapping[int, int],
                   max_moves: int = 64,
                   tolerance: float = 1.10) -> List[Tuple[int, int]]:
    """Greedy hot/cold page swaps that flatten per-bank load skew.

    ``page_loads`` maps logical pages to access counts (pages absent
    count as cold).  While the hottest bank's load exceeds
    ``tolerance`` times the mean, the plan swaps that bank's hottest
    unswapped page with the coldest bank's coldest page — the classic
    longest-processing-time flattening, bounded by ``max_moves``.
    Deterministic: all ties break on page number.  The returned swaps
    are *not* applied; feed them to :meth:`ShardRouter.swap` (the
    service front-end does, and migrates page payloads when it holds
    in-process banks).
    """
    num_banks = router.num_shards
    if num_banks < 2 or max_moves < 1:
        return []
    per_bank: List[List[Tuple[int, int]]] = [[] for _ in range(num_banks)]
    loads = [0] * num_banks
    for page, bank in enumerate(router.slot_table()[0]):
        load = page_loads.get(page, 0)
        per_bank[bank].append((load, page))
        loads[bank] += load
    total = sum(loads)
    if total == 0:
        return []
    mean = total / num_banks
    # Hottest first on every bank; ties by page number.
    for entries in per_bank:
        entries.sort(key=lambda item: (-item[0], item[1]))
    hot_next = [0] * num_banks                    # next hot candidate
    cold_next = [len(b) - 1 for b in per_bank]    # next cold candidate
    swaps: List[Tuple[int, int]] = []
    while len(swaps) < max_moves:
        hot_bank = max(range(num_banks), key=lambda b: loads[b])
        cold_bank = min(range(num_banks), key=lambda b: loads[b])
        if hot_bank == cold_bank or loads[hot_bank] <= tolerance * mean:
            break
        if (hot_next[hot_bank] >= len(per_bank[hot_bank])
                or cold_next[cold_bank] < 0):
            break
        hot_load, hot_page = per_bank[hot_bank][hot_next[hot_bank]]
        cold_load, cold_page = per_bank[cold_bank][cold_next[cold_bank]]
        if hot_load <= cold_load:
            break  # nothing left to gain
        hot_next[hot_bank] += 1
        cold_next[cold_bank] -= 1
        loads[hot_bank] += cold_load - hot_load
        loads[cold_bank] += hot_load - cold_load
        swaps.append((hot_page, cold_page))
    return swaps


# ----------------------------------------------------------------------
# Online rebuild
# ----------------------------------------------------------------------

class RebuildScheduler:
    """Repopulates one replacement bank from its peers, incrementally.

    Construction snapshots the router's rebuild plan for ``bank``
    (which must already be in the ``rebuilding`` state — see
    :meth:`EnvyService.replace_bank`).  Two drivers share the cursor:

    * :meth:`step` — the in-process driver: reads each entry's
      :meth:`sources`, XORs them (a lone copy is the bytes) and writes
      the result into the replacement bank.  Used by the chaos drills
      and direct-access serving, where banks hold real payloads.
    * :meth:`take` — the schedule driver: hands the next batch of plan
      entries to the service front-end, which charges the same
      :meth:`sources` reads plus the replacement program through the
      cost model inside a normal :meth:`EnvyService.run`, rate-limited
      by ``rebuild_rate_pps`` so foreground tails stay bounded.

    ``progress`` is shared either way; :meth:`finish` verifies (in
    process) and flips the bank back to healthy.
    """

    def __init__(self, service, bank: int,
                 pages_per_step: int = 32) -> None:
        if pages_per_step < 1:
            raise ValueError("rebuild steps need at least one page")
        self.service = service
        self.bank = bank
        self.pages_per_step = pages_per_step
        self.plan = service.router.rebuild_plan(bank)
        self.position = 0
        self.verified_mismatches: Optional[int] = None

    @property
    def total(self) -> int:
        return len(self.plan)

    @property
    def done(self) -> bool:
        return self.position >= len(self.plan)

    @property
    def progress(self) -> float:
        if not self.plan:
            return 1.0
        return self.position / len(self.plan)

    def take(self, max_pages: int) -> List[Dict]:
        """Advance the cursor; returns the next plan entries."""
        if max_pages < 0:
            raise ValueError("max_pages cannot be negative")
        batch = self.plan[self.position:self.position + max_pages]
        self.position += len(batch)
        return batch

    # -- in-process data movement --------------------------------------

    def sources(self, entry: Dict) -> Sequence[Slot]:
        """The peer slots one plan entry is rebuilt from: its first
        candidate group on healthy banks only (a peer that is itself
        rebuilding may still hold blank slots)."""
        group = healthy_group(entry["groups"], self.service._bank_states)
        if group is None:
            raise DegradedModeError(
                f"no healthy source for local page {entry['local']} of "
                f"bank {self.bank}")
        return group

    def step(self, max_pages: Optional[int] = None) -> int:
        """Copy the next batch into the replacement bank; returns the
        number of pages written."""
        from ..obs.events import REDUNDANCY_REBUILD

        service = self.service
        batch = self.take(max_pages if max_pages is not None
                          else self.pages_per_step)
        if not batch:
            return 0
        target = service.shard(self.bank)
        page_bytes = service.config.page_bytes
        spent_ns = 0
        for entry in batch:
            value = service.read_xor(self.sources(entry))
            spent_ns += target.write(entry["local"] * page_bytes, value)
        bus = service.events
        if bus.active:
            bus.emit_span(REDUNDANCY_REBUILD, spent_ns,
                          {"bank": self.bank, "pages": len(batch),
                           "done": self.position, "total": self.total})
        return len(batch)

    def run_to_completion(self, probe=None) -> int:
        """Drive :meth:`step` until done; ``probe`` (if given) is
        called after every step so callers can interleave foreground
        serving.  Returns total pages written."""
        written = 0
        while not self.done:
            written += self.step()
            if probe is not None:
                probe(self)
        return written

    def verify(self) -> int:
        """Re-check every rebuilt slot against a fresh reconstruction;
        returns the mismatch count (0 = the bank is trustworthy)."""
        service = self.service
        page_bytes = service.config.page_bytes
        target = service.shard(self.bank)
        bad = 0
        for entry in self.plan[:self.position]:
            want = service.read_xor(self.sources(entry))
            got = target.read(entry["local"] * page_bytes, page_bytes)
            if got != want:
                bad += 1
        self.verified_mismatches = bad
        return bad

    def finish(self, verify: bool = True) -> None:
        """Declare the bank healthy (optionally verifying first)."""
        if not self.done:
            raise RuntimeError(
                f"rebuild of bank {self.bank} is only "
                f"{self.progress:.0%} complete")
        if verify and self.verify():
            raise DegradedModeError(
                f"rebuilt bank {self.bank} failed verification: "
                f"{self.verified_mismatches} slots differ from their "
                f"peer reconstruction")
        self.service.mark_bank_healthy(self.bank)
