"""Cross-bank redundancy: survive whole-bank loss, rebuild online.

PR 6 striped one logical page space over independent eNVy banks, which
made the stripe the failure domain: lose one bank and its pages are
gone.  This module adds the redundancy layer that removes that single
point of failure, in three pieces layered on the
:class:`~repro.service.shard.ShardRouter`:

* :class:`RedundancyPolicy` — pluggable placement math.  ``none``
  keeps the PR-6 behaviour (full capacity, zero protection);
  ``mirror`` / ``mirror:k`` keeps ``k`` byte-identical copies of every
  logical page on ``k`` distinct banks (capacity divides by ``k``,
  any ``k-1`` bank losses survivable); ``parity`` groups the banks
  into RAID-5-style rotated stripe groups — each stripe holds ``N-1``
  data pages plus one XOR parity page, parity rotating across banks so
  no bank becomes the parity bottleneck (capacity ``(N-1)/N``, one
  bank loss survivable).
* :class:`RedundantRouter` — a :class:`ShardRouter` that consults the
  policy: every logical page maps to a primary ``(bank, local)`` slot
  plus the policy's replica/parity placements, and an overlay
  **remap** (SoftWear-style software remapping, no hardware support)
  lets hot pages migrate between banks after the fact.  The remap is a
  permutation maintained as a sparse pair of dicts, so an unremapped
  router routes at the same cost as the plain one.
* :class:`RebuildScheduler` — repopulates a replacement bank from its
  peers (copy from any mirror, or XOR the surviving stripe members)
  in rate-limited batches while the service keeps serving, then
  verifies the rebuilt bank against a fresh reconstruction.

The policies are pure placement arithmetic — no controller references,
picklable, and deterministic — so the service front-end can expand a
schedule into per-bank slices (charging every extra program and read
through the existing cost model) and still fan the banks out across
worker processes exactly as before.

:class:`DegradedModeError` is the layer's only failure mode: it is
raised when an operation's redundancy is exhausted (every placement of
a page is on a dead bank, or a rebuild has no surviving source), never
merely because a bank died.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .shard import ShardRouter

__all__ = ["DegradedModeError", "RedundancyPolicy", "NoRedundancy",
           "MirrorPolicy", "ParityPolicy", "make_policy",
           "RedundantRouter", "RebuildScheduler", "plan_rebalance",
           "BANK_HEALTHY", "BANK_DEAD", "BANK_REBUILDING"]

#: One placement: ``(bank_index, local_page)``.
Slot = Tuple[int, int]

# Bank lifecycle states tracked by the service front-end.
BANK_HEALTHY = "healthy"
BANK_DEAD = "dead"
BANK_REBUILDING = "rebuilding"


class DegradedModeError(RuntimeError):
    """Redundancy is exhausted: no surviving placement can serve this.

    Raised only when *every* copy (or the reconstruction set) of a
    logical page is on a dead bank — a single bank loss under mirror or
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
        live bank.
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


class NoRedundancy(RedundancyPolicy):
    """Full capacity, zero protection: the PR-6 placement unchanged."""

    name = "none"
    write_fanout = 1
    survivable = 0

    def validate(self, num_banks: int, pages_per_bank: int) -> None:
        pass

    def usable_pages(self, num_banks: int, pages_per_bank: int) -> int:
        return num_banks * pages_per_bank

    def data_slot(self, page: int, num_banks: int, pages_per_bank: int,
                  placement: str) -> Slot:
        if placement == "ranged":
            return page // pages_per_bank, page % pages_per_bank
        return page % num_banks, page // num_banks

    def extra_slots(self, slot: Slot, num_banks: int,
                    pages_per_bank: int) -> List[Slot]:
        return []

    def page_of_slot(self, slot: Slot, num_banks: int,
                     pages_per_bank: int, placement: str
                     ) -> Optional[int]:
        bank, local = slot
        if placement == "ranged":
            return bank * pages_per_bank + local
        return local * num_banks + bank


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
    survivable_offset = 1

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
# Router
# ----------------------------------------------------------------------

class RedundantRouter(ShardRouter):
    """A shard router that consults a :class:`RedundancyPolicy`.

    ``pages_per_shard`` stays the *physical* local page count of each
    bank; the presented logical page space (:attr:`num_pages`) shrinks
    to what the policy leaves usable.  On top of the policy placement
    sits the rebalancing remap: a sparse permutation of the logical
    page space (``page -> placement owner``) maintained with its
    inverse, so both directions stay O(1) and an unremapped page costs
    one dict miss.
    """

    __slots__ = ("policy", "_remap", "_inverse")

    def __init__(self, num_shards: int, pages_per_shard: int,
                 page_bytes: int = 256, placement: str = "striped",
                 policy: Optional[RedundancyPolicy] = None) -> None:
        super().__init__(num_shards, pages_per_shard, page_bytes,
                         placement)
        self.policy = policy or NoRedundancy()
        if placement == "ranged" and self.policy.name == "parity":
            raise ValueError("parity striping requires striped placement")
        self.policy.validate(num_shards, pages_per_shard)
        self.num_pages = self.policy.usable_pages(num_shards,
                                                  pages_per_shard)
        #: Rebalancing overlay: logical page -> placement-owner page.
        self._remap: Dict[int, int] = {}
        self._inverse: Dict[int, int] = {}

    # -- routing -------------------------------------------------------

    def route(self, page: int) -> Slot:
        self._check_page(page)
        owner = self._remap.get(page, page)
        return self.policy.data_slot(owner, self.num_shards,
                                     self.pages_per_shard, self.placement)

    def global_page(self, shard_index: int, local_page: int) -> int:
        """Strict inverse of :meth:`route` (primary data slots only)."""
        if not 0 <= shard_index < self.num_shards:
            raise IndexError(f"no shard {shard_index}")
        if not 0 <= local_page < self.pages_per_shard:
            raise IndexError(
                f"local page {local_page} outside shard "
                f"{shard_index}'s {self.pages_per_shard} pages")
        page = self.page_of_slot((shard_index, local_page))
        if page is None:
            raise IndexError(
                f"slot ({shard_index}, {local_page}) is not a primary "
                f"data slot under policy {self.policy.name!r}")
        owner = self._remap.get(page, page)
        if self.policy.data_slot(owner, self.num_shards,
                                 self.pages_per_shard,
                                 self.placement) != (shard_index,
                                                     local_page):
            raise IndexError(
                f"slot ({shard_index}, {local_page}) holds a replica, "
                f"not a primary copy")
        return page

    def page_of_slot(self, slot: Slot) -> Optional[int]:
        """Logical page whose content lives in ``slot`` (any copy)."""
        owner = self.policy.page_of_slot(slot, self.num_shards,
                                         self.pages_per_shard,
                                         self.placement)
        if owner is None or owner >= self.num_pages:
            return None
        return self._inverse.get(owner, owner)

    def placements(self, page: int) -> List[Slot]:
        """Every slot a write to ``page`` must program, primary first."""
        primary = self.route(page)
        return [primary] + self.policy.extra_slots(
            primary, self.num_shards, self.pages_per_shard)

    def read_groups(self, page: int) -> List[List[Slot]]:
        """Degraded-read source groups for ``page`` (see the policy)."""
        primary = self.route(page)
        return self.policy.read_groups(primary, self.num_shards,
                                       self.pages_per_shard)

    @property
    def is_plain(self) -> bool:
        """True when routing is bit-identical to the plain striped
        router (no redundancy, no ranged placement, no remap) — the
        front-end's licence to keep the PR-6 arithmetic fast path."""
        return (self.policy.name == "none"
                and self.placement == "striped" and not self._remap)

    # -- rebalancing remap ---------------------------------------------

    @property
    def remapped_pages(self) -> int:
        return len(self._remap)

    def swap(self, page_a: int, page_b: int) -> None:
        """Exchange the placements of two logical pages.

        Swapping keeps the remap a permutation by construction — no
        page ever loses its slot, so capacity accounting and rebuild
        plans stay exact however many swaps accumulate.
        """
        self._check_page(page_a)
        self._check_page(page_b)
        if page_a == page_b:
            return
        owner_a = self._remap.get(page_a, page_a)
        owner_b = self._remap.get(page_b, page_b)
        for page, owner in ((page_a, owner_b), (page_b, owner_a)):
            if page == owner:
                self._remap.pop(page, None)
                self._inverse.pop(owner, None)
            else:
                self._remap[page] = owner
                self._inverse[owner] = page

    # -- rebuild plans -------------------------------------------------

    def rebuild_plan(self, bank: int) -> List[Dict]:
        """How to repopulate every slot of ``bank`` from its peers.

        Returns one entry per live slot, in local-page order:
        ``{"local", "op", "sources", "page"}`` where ``op`` is
        ``"copy"`` (any one source slot holds the bytes — mirrors) or
        ``"xor"`` (the bytes are the XOR of every source — parity data
        and parity slots alike), ``sources`` are peer slots, and
        ``page`` is the logical page served from the slot (``None``
        for parity slots).  Raises :class:`DegradedModeError` under
        ``none`` — there is nothing to rebuild from.
        """
        if not 0 <= bank < self.num_shards:
            raise IndexError(f"no bank {bank}")
        policy = self.policy
        if policy.name == "none":
            raise DegradedModeError(
                "cannot rebuild a bank without redundancy (policy "
                "'none' keeps a single copy of every page)")
        num_banks, pages = self.num_shards, self.pages_per_shard
        plan: List[Dict] = []
        if isinstance(policy, MirrorPolicy):
            region = pages // policy.copies
            for local in range(policy.copies * region):
                page = self.page_of_slot((bank, local))
                if page is None:
                    continue
                owner = self._remap.get(page, page)
                primary = policy.data_slot(owner, num_banks, pages,
                                           self.placement)
                copies = [primary] + policy.extra_slots(primary,
                                                        num_banks, pages)
                sources = [slot for slot in copies
                           if slot != (bank, local)]
                plan.append({"local": local, "op": "copy",
                             "sources": sources, "page": page})
        else:  # parity
            for local in range(pages):
                sources = [(peer, local) for peer in range(num_banks)
                           if peer != bank]
                plan.append({"local": local, "op": "xor",
                             "sources": sources,
                             "page": self.page_of_slot((bank, local))})
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RedundantRouter({self.num_shards} banks x "
                f"{self.pages_per_shard} pages, {self.placement}, "
                f"{self.policy.name}, {self.num_pages} logical pages, "
                f"{len(self._remap)} remapped)")


# ----------------------------------------------------------------------
# Hot-page rebalancing
# ----------------------------------------------------------------------

def plan_rebalance(router: RedundantRouter,
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
    are *not* applied; feed them to :meth:`RedundantRouter.swap` (the
    service front-end does, and migrates page payloads when it holds
    in-process banks).
    """
    num_banks = router.num_shards
    if num_banks < 2 or max_moves < 1:
        return []
    per_bank: List[List[Tuple[int, int]]] = [[] for _ in range(num_banks)]
    loads = [0] * num_banks
    for page in range(router.num_pages):
        load = page_loads.get(page, 0)
        bank = router.route(page)[0]
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

    * :meth:`step` — the in-process driver: reads the source slots
      through the service's live controllers, XORs when the plan says
      so, and writes the bytes into the replacement bank.  Used by the
      chaos drills and direct-access serving, where banks hold real
      payloads.
    * :meth:`take` — the schedule driver: hands the next batch of plan
      entries to the service front-end, which charges the copy traffic
      (peer reads + replacement programs) through the cost model
      inside a normal :meth:`EnvyService.run`, rate-limited by
      ``rebuild_rate_pps`` so foreground tails stay bounded.

    ``progress`` is shared either way; :meth:`finish` verifies (in
    process) and flips the bank back to healthy.
    """

    def __init__(self, service, bank: int,
                 pages_per_step: int = 32) -> None:
        if pages_per_step < 1:
            raise ValueError("rebuild steps need at least one page")
        if not isinstance(service.router, RedundantRouter):
            raise DegradedModeError(
                "cannot rebuild a bank without redundancy (the plain "
                "striped router keeps a single copy of every page)")
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

    def _reconstruct(self, entry: Dict) -> bytes:
        service = self.service
        page_bytes = service.config.page_bytes
        sources = entry["sources"]
        if entry["op"] == "copy":
            for bank, local in sources:
                if service.bank_state(bank) != BANK_DEAD:
                    return service.shard(bank).read(
                        local * page_bytes, page_bytes)
            raise DegradedModeError(
                f"no surviving copy for local page {entry['local']} "
                f"of bank {self.bank}")
        value = bytearray(page_bytes)
        for bank, local in sources:
            if service.bank_state(bank) == BANK_DEAD:
                raise DegradedModeError(
                    f"stripe member bank {bank} is dead; cannot "
                    f"reconstruct local page {entry['local']}")
            data = service.shard(bank).read(local * page_bytes,
                                            page_bytes)
            for i, byte in enumerate(data):
                value[i] ^= byte
        return bytes(value)

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
            value = self._reconstruct(entry)
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
            want = self._reconstruct(entry)
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
