"""ShardExecutor: pinned replays, feed split-invariance, hook hygiene.

``TestPinnedReplay`` pins one sha256 per executor feature set, taken
over the full result dict plus the controller state the replay leaves
behind, as the ``executor_replay/<feature set>`` cases of the fidelity
ledger.  The digests were **recorded at the commit before the replay
loop was rewritten** (page-granular reads, hoisted per-run constants,
inline overdraft path) — they pin that rewrite to the old loop's
behaviour and are never updated.  ``bus_marks`` replays with a
subscriber on the controller bus and digests the event stream too
(batch spans, throttle / retry / reject / cache marks, the clock the
replay syncs); it was recorded before the replay's per-row feature
tests were grouped.  ``observed_all`` crosses request tracing with wear
attribution (and a subscriber); it was recorded before both observers
moved out of the replay loop.
"""

import collections
import gc
import hashlib
import json
import random
from unittest import mock

import pytest

from repro.core.chaos import KillSwitch
from repro.core.config import EnvyConfig
from repro.core.controller import EnvyController
from repro.core.recovery import SimulatedPowerFailure
from repro.obs.events import (CACHE_EVICT, CACHE_HIT, CACHE_INVALIDATE,
                              CACHE_MISS, HOST_READ, HOST_WRITE,
                              SERVICE_BATCH, SERVICE_REJECT, SERVICE_RETRY,
                              SERVICE_THROTTLE)
from repro.obs.hist import LatencyHistogram
from repro.service import ServiceConfig, adversary
from repro.service.executor import ShardExecutor
from repro.service.loadgen import WINDOW_ROWS

from .fidelity import LEDGER

TENANTS = ["alpha", "beta", "gamma"]

#: The service config of a test that sets none of its knobs.
DEFAULTS = ServiceConfig()


def make_controller(store_data=False):
    config = EnvyConfig.scaled(num_segments=8, pages_per_segment=32)
    controller = EnvyController(config, store_data=store_data)
    controller.prewarm(2.0, seed=11)
    return controller


def mixed_slice(seed, rows=2400, tenants=3, pages=192, write_share=0.45):
    """Bursts, short gaps and long idle gaps over a hot/cold page mix.

    Bursts overrun a shallow queue, sustained writes push the buffer
    through both watermarks, long gaps let the flusher run (and overdraw
    its budget), and the hot set keeps coalescing and wear caps busy.
    """
    rng = random.Random(seed)
    out = []
    seqs = [0] * tenants
    now = 0
    for _ in range(rows):
        shape = rng.random()
        if shape < 0.60:
            now += rng.randrange(0, 120)
        elif shape < 0.93:
            now += rng.randrange(200, 4000)
        else:
            now += rng.randrange(8000, 90000)
        tenant = rng.randrange(tenants)
        page = (rng.randrange(12) if rng.random() < 0.5
                else rng.randrange(pages))
        is_write = rng.random() < write_share
        out.append((now, tenant, seqs[tenant], is_write, page))
        seqs[tenant] += 1
    return out


def states(latency):
    """Every (read, write) histogram pair as state dicts."""
    return [(reads.state_dict(), writes.state_dict())
            for reads, writes in latency]


def tenant_slots(result, names):
    """A result's counter columns (and wear list) as one dict per tenant
    name, the shape shard results had when the blobs were pinned."""
    slots = {}
    for index, name in enumerate(names):
        slots[name] = {key: column[index]
                       for key, column in result["columns"].items()}
        if "wear" in result:
            slots[name]["wear"] = result["wear"][index]
    return slots


def replay_digest(executor, requests, rids=None, cuts=None, events=None):
    """sha256 over the result dict and the state the replay leaves;
    ``cuts`` replays the slice as that many-plus-one feeds instead.
    ``events`` (what a bus subscriber heard) joins the digest."""
    # Pseudo-tenants record too, as every tenant did when pinned.
    pairs = [(LatencyHistogram(), LatencyHistogram())
             for _ in executor.tenant_names]
    if cuts is None:
        result = executor.run(requests, rids=rids, latency=pairs)
    else:
        executor.start(pairs)
        for begin, end in zip([0] + cuts, cuts + [len(requests)]):
            executor.feed(requests[begin:end],
                          None if rids is None else rids[begin:end])
        result = executor.finish()
    # The executor folds latencies into its histogram pairs; the pinned
    # blob still carries them where the result dict once did.
    tenants = {name: dict(slot, read_latency=reads.state_dict(),
                          write_latency=writes.state_dict())
               for (name, slot), (reads, writes)
               in zip(tenant_slots(result, executor.tenant_names).items(),
                      pairs)}
    result = {key: value for key, value in result.items()
              if key not in ("columns", "wear")}
    controller = executor.controller
    state = {
        "result": dict(result, tenants=tenants),
        "metrics": controller.metrics.state_dict(),
        "mmu": [controller.mmu.hits, controller.mmu.misses],
        "buffered": len(controller.buffer),
        "overdraft_ns": executor._overdraft_ns,
        "stamp": executor._stamp,
    }
    if events is not None:
        state["events"] = events
        state["bus_clock_ns"] = controller.events.clock_ns
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: name -> (ServiceConfig knobs, per-run executor inputs, slice kwargs,
#: tenant names, store_data)
FEATURE_SETS = {
    "plain": ({}, {}, {}, TENANTS, False),
    "cache_caps": (
        {"cache_pages": 24},
        {"cache_tenants": [True, True, False],
         "cache_tenant_caps": [6, None, None]},
        {"write_share": 0.2}, TENANTS, False),
    "retry_queue4": (
        {"queue_capacity": 4, "retry_limit": 2, "retry_backoff_ns": 700},
        {}, {}, TENANTS, False),
    "wear_budgets": (
        {}, {"wear_budgets": [3, None, 40]}, {}, TENANTS, False),
    "attribute_wear": (
        {"attribute_wear": True}, {}, {}, TENANTS, False),
    "trace_pseudo": (
        {"queue_capacity": 6}, {"trace": True},
        {"tenants": 4}, TENANTS + ["__redundancy__"], False),
    "bus_marks": (
        {"queue_capacity": 4, "retry_limit": 1, "retry_backoff_ns": 700,
         "cache_pages": 24},
        {"wear_budgets": [3, None, 40]},
        {"write_share": 0.6}, TENANTS, False),
    # Both observers on one replay, with every feature they bracket.
    "observed_all": (
        {"attribute_wear": True, "queue_capacity": 4, "retry_limit": 2,
         "retry_backoff_ns": 700, "cache_pages": 24},
        {"trace": True, "wear_budgets": [3, None, 40, None],
         "cache_tenants": [True, True, False, False],
         "cache_tenant_caps": [6, None, None, None]},
        {"tenants": 4, "write_share": 0.5},
        TENANTS + ["__redundancy__"], False),
}

#: Feature sets replayed with a subscriber on the controller bus.
HEARD = {"bus_marks", "observed_all"}

#: Feature sets pinned at another buffer-residency window than the wear
#: ledger's (once a service knob, now its module constant).
WINDOW_NS = {"attribute_wear": 20_000}


def feature_replay(name):
    """The pinned (executor, slice) of one feature set."""
    knobs, inputs, slice_kwargs, names, store_data = FEATURE_SETS[name]
    executor = ShardExecutor(make_controller(store_data), 3, names,
                             ServiceConfig(**knobs), **inputs)
    return executor, mixed_slice(20260928, **slice_kwargs)


def heard_events(executor):
    """Subscribe to the executor's controller bus; the list fills with
    every event's flat form."""
    events = []
    executor.controller.events.subscribe(
        lambda event: events.append(event.as_dict()))
    return events


def pinned_digest(name, cuts=None):
    """The ledger digest of one feature set's pinned replay."""
    executor, requests = feature_replay(name)
    rids = None
    if executor.trace:
        rids = [7 * i + 1 for i in range(len(requests))]
    events = heard_events(executor) if name in HEARD else None
    with mock.patch.object(adversary, "ATTRIBUTION_WINDOW_NS",
                           WINDOW_NS.get(name,
                                         adversary.ATTRIBUTION_WINDOW_NS)):
        return replay_digest(executor, requests, rids, cuts, events)


class TestPinnedReplay:
    @pytest.mark.parametrize("name", sorted(FEATURE_SETS))
    def test_result_matches_parent_commit(self, name):
        LEDGER.check(f"executor_replay/{name}",
                     {"sha256": pinned_digest(name)})

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(FEATURE_SETS))
    def test_any_split_into_feeds_is_the_same_replay(self, name, seed):
        """start / feed x N / finish at random cut points — empty
        stretches, cuts inside a burst of retries and inside a run of
        equal arrivals included — is ``run`` of the whole slice."""
        rows = len(mixed_slice(20260928, **FEATURE_SETS[name][2]))
        rng = random.Random(seed)
        cuts = sorted(rng.randrange(rows + 1)
                      for _ in range((3, 25, 120)[seed]))
        if seed == 0:
            cuts = [0] + cuts + [cuts[-1], rows]
        LEDGER.check(f"executor_replay/{name}",
                     {"sha256": pinned_digest(name, cuts)})

    def test_default_rids_number_rows_across_feeds(self):
        """Without explicit rids a traced replay numbers rows by their
        running offset, however the slice was cut."""
        whole, requests = feature_replay("trace_pseudo")
        expected = whole.run(requests)["trace"]["rows"]
        assert [row["rid"] for row in expected[:3]] == [0, 1, 2]
        split, _ = feature_replay("trace_pseudo")
        split.start()
        for begin in range(0, len(requests), 700):
            split.feed(requests[begin:begin + 700])
        assert split.finish()["trace"]["rows"] == expected

    @pytest.mark.parametrize("name", sorted(FEATURE_SETS))
    def test_read_and_write_counts_are_the_histogram_counts(self, name):
        """Served latencies queue per tenant and fold feed by feed into
        the tenant's histogram pair; the per-tenant counts are the
        lengths of what was folded."""
        executor, requests = feature_replay(name)
        executor.start()
        for begin in range(0, len(requests), 500):
            executor.feed(requests[begin:begin + 500])
        result = executor.finish()
        offered = collections.Counter((row[1], row[3]) for row in requests)
        slots = tenant_slots(result, executor.tenant_names)
        for index, tenant in enumerate(executor.tenant_names):
            stats = slots[tenant]
            if tenant.startswith("__"):
                # A pseudo-tenant's rows are counted, never recorded.
                assert executor.latency[index] is None
            else:
                reads, writes = executor.latency[index]
                assert stats["reads"] == reads.count
                assert stats["writes"] == writes.count
            assert stats["reads"] <= offered[index, False]
            assert 0 < stats["writes"] <= offered[index, True]
            # A cache-tier tenant's reads each probed the tier once
            # (no cache_tenants list: every real tenant is one).
            knobs, inputs = FEATURE_SETS[name][:2]
            members = (inputs.get("cache_tenants")
                       or [True] * len(executor.tenant_names))
            cached = (knobs.get("cache_pages")
                      and not tenant.startswith("__") and members[index])
            assert stats["cache_hits"] + stats["cache_misses"] == \
                (stats["reads"] if cached else 0)
            # Every row was served or refused, exactly once.
            assert (stats["reads"] + stats["writes"] + stats["rejected"]
                    + stats["rejected_wear"]) == \
                offered[index, False] + offered[index, True]

    def test_run_is_window_sized_feeds_of_the_whole_slice(self):
        """``run`` cuts a collected slice into WINDOW_ROWS stretches (the
        pending latencies of a ``jobs > 1`` shard stay bounded too)."""
        requests = mixed_slice(3, rows=2 * WINDOW_ROWS + 100)
        whole = ShardExecutor(make_controller(), 0, TENANTS, DEFAULTS,
                              trace=True)
        whole.start()
        whole.feed(requests)
        cut = ShardExecutor(make_controller(), 0, TENANTS, DEFAULTS,
                            trace=True)
        with mock.patch.object(ShardExecutor, "feed", autospec=True,
                               side_effect=ShardExecutor.feed) as feed:
            result = cut.run(requests)
        assert [len(call.args[1]) for call in feed.call_args_list] == \
            [WINDOW_ROWS, WINDOW_ROWS, 100]
        assert result == whole.finish()
        assert states(cut.latency) == states(whole.latency)

    def test_fleet_feeds_fold_once_a_window(self):
        """A 200-tenant slice fed a row at a time replays as one feed of
        the whole, and each histogram takes at most one ``record_many``
        per WINDOW_ROWS rows fed (plus the one in ``finish``), not one
        per feed."""
        names = [f"t{i}" for i in range(200)]
        requests = mixed_slice(7, rows=2 * WINDOW_ROWS + 300,
                               tenants=len(names))

        def replay(feeds):
            executor = ShardExecutor(make_controller(), 0, names, DEFAULTS)
            executor.start()
            with mock.patch.object(LatencyHistogram, "record_many",
                                   autospec=True,
                                   side_effect=LatencyHistogram.record_many
                                   ) as record_many:
                for feed in feeds:
                    executor.feed(feed)
                result = executor.finish()
            calls = collections.Counter(
                id(call.args[0]) for call in record_many.call_args_list)
            return result, states(executor.latency), calls

        whole = replay([requests])
        rows = replay([[row] for row in requests])
        assert rows[:2] == whole[:2]
        assert max(rows[2].values()) <= len(requests) // WINDOW_ROWS + 1

    def test_folds_visit_only_tenants_with_samples(self):
        """On a 2 000-tenant slice each fold calls ``record_many`` once
        per (tenant, op) with samples in it, and never for the others.
        Fed a WINDOW_ROWS stretch at a time, every full stretch is one
        fold; nothing is refused, so every row is a sample."""
        names = [f"t{i}" for i in range(2000)]
        rng = random.Random(5)
        requests = []
        for index in range(3 * WINDOW_ROWS + 77):
            # A quarter of the tenants never send a row.
            requests.append((index * 5000, rng.randrange(1500), index,
                             rng.random() < 0.1, rng.randrange(192)))
        executor = ShardExecutor(make_controller(), 0, names, ServiceConfig(
            queue_capacity=10 ** 6, soft_watermark=1.0, hard_watermark=1.0))
        executor.start()
        calls = []
        with mock.patch.object(LatencyHistogram, "record_many",
                               autospec=True,
                               side_effect=LatencyHistogram.record_many
                               ) as record_many:
            for begin in range(0, len(requests), WINDOW_ROWS):
                executor.feed(requests[begin:begin + WINDOW_ROWS])
                calls.append(record_many.call_count)
            result = executor.finish()
            calls.append(record_many.call_count)
        assert sum(result["columns"]["rejected"]) == 0
        expected = [len({(row[1], row[3]) for row
                         in requests[begin:begin + WINDOW_ROWS]})
                    for begin in range(0, len(requests), WINDOW_ROWS)]
        # The short last stretch does not reach a fold: finish folds it.
        assert [after - before for before, after
                in zip([0] + calls, calls)] == \
            expected[:-1] + [0, expected[-1]]

    def test_folds_into_the_pairs_it_is_given(self):
        """Handed histograms already holding samples, the replay adds
        exactly its own to them: the pairs a fresh start builds, merged
        in.  The result dict carries no histogram."""
        fresh, requests = feature_replay("plain")
        fresh.run(requests)
        given, _ = feature_replay("plain")
        pairs = [(LatencyHistogram(), LatencyHistogram()) for _ in TENANTS]
        for reads, writes in pairs:
            reads.record(5)
            writes.record_many([7, 7, 90_000])
        expected = states(pairs)
        given.start(pairs)
        given.feed(requests)
        result = given.finish()
        assert all(mine is theirs for mine, theirs
                   in zip(given.latency, pairs))
        for (read_state, write_state), (reads, writes) in zip(
                expected, fresh.latency):
            for state, hist in ((read_state, reads), (write_state, writes)):
                merged = LatencyHistogram.from_state(state)
                merged.merge(hist)
                state.update(merged.state_dict())
        assert states(pairs) == expected
        assert not any(key.endswith("_latency")
                       for key in (*result, *result["columns"]))
        with pytest.raises(ValueError, match="align"):
            given.start(pairs[:2])

    # Cache hits, misses, evictions, invalidations, queue refusals and
    # the final clock, as the parent of the lean cache path replayed them.
    @pytest.mark.parametrize("policy, parent", [
        ("clock", (396, 794, 592, 178, 188, 10_211_381))])
    def test_lean_and_observed_cache_replays_agree(self, policy, parent):
        """An untraced, unheard replay serves cache-tier reads and
        queue refusals on its lean path and counts hits at the end; a
        traced replay with a bus subscriber takes every row through the
        marks.  Both return the same counts, cache stats and clock, the
        ones every row's lookup returned before the lean path."""
        requests = mixed_slice(20260928, write_share=0.2)

        def replay(observed):
            executor = ShardExecutor(
                make_controller(), 3, TENANTS,
                ServiceConfig(queue_capacity=4, cache_pages=24),
                cache_tenants=[True, True, False],
                cache_tenant_caps=[6, None, None], trace=observed)
            events = heard_events(executor) if observed else []
            result = executor.run(requests)
            return result, events

        lean, _ = replay(False)
        observed, events = replay(True)
        assert {event["kind"] for event in events} >= {
            CACHE_HIT, CACHE_MISS, CACHE_EVICT, CACHE_INVALIDATE,
            SERVICE_REJECT}
        assert observed["columns"] == lean["columns"]
        assert observed["cache"] == lean["cache"]
        cache = lean["cache"]
        assert cache["policy"] == policy
        assert cache["hits"] == sum(lean["columns"]["cache_hits"])
        assert cache["misses"] == sum(lean["columns"]["cache_misses"])
        assert observed["rejected_queue"] == lean["rejected_queue"]
        assert observed["clock_ns"] == lean["clock_ns"]
        assert (*(cache[key] for key in ("hits", "misses", "evictions",
                                         "invalidations")),
                lean["rejected_queue"], lean["clock_ns"]) == parent

    def test_slices_exercise_what_they_pin(self):
        """The pinned slices are not vacuous: each reaches its feature."""
        def run(name):
            executor, requests = feature_replay(name)
            return executor.run(requests)

        plain = run("plain")
        assert plain["flushes"] and plain["clean_copies"] and plain["erases"]
        assert plain["coalesced_writes"] and plain["batches"] > 10
        assert any(plain["columns"]["delayed"])
        cached = run("cache_caps")
        assert cached["cache"]["hits"] and cached["cache"]["evictions"]
        assert cached["cache"]["invalidations"]
        retried = run("retry_queue4")
        assert retried["retried"] and retried["rejected_queue"]
        assert run("wear_budgets")["rejected_wear"]
        attributed = run("attribute_wear")
        assert attributed["segment_programs"]
        assert attributed["wear"][TENANTS.index("alpha")]["flushes"]
        traced = run("trace_pseudo")
        assert traced["trace"]["background"]
        assert any(row["components"].get("redundancy")
                   for row in traced["trace"]["rows"])
        executor, requests = feature_replay("bus_marks")
        events = heard_events(executor)
        executor.run(requests)
        kinds = collections.Counter(event["kind"] for event in events)
        assert {SERVICE_BATCH, SERVICE_THROTTLE, SERVICE_RETRY, CACHE_HIT,
                CACHE_MISS, CACHE_EVICT, CACHE_INVALIDATE, HOST_READ,
                HOST_WRITE} <= set(kinds)
        assert {event["reason"] for event in events
                if event["kind"] == SERVICE_REJECT} == \
            {"queue_full", "wear_budget", "cleaner_behind"}
        assert {event["reason"] for event in events
                if event["kind"] == CACHE_INVALIDATE} == {"write", "clean"}
        both = run("observed_all")
        assert both["retried"] and both["rejected_wear"]
        assert both["cache"]["hits"] and both["segment_programs"]
        assert any(slot["residency_windows"] for slot in both["wear"])
        outcomes = {row["outcome"] for row in both["trace"]["rows"]}
        assert outcomes == {"served", "rejected_queue", "rejected_wear",
                            "rejected_shed"}
        assert any(row["components"].get("redundancy")
                   for row in both["trace"]["rows"])


class TestServiceKnobs:
    """The executor's service-wide knobs are the config's: declared,
    defaulted and checked in ServiceConfig alone."""

    @pytest.mark.parametrize("knobs", [
        {"queue_capacity": 0},
        {"soft_watermark": 0.99, "hard_watermark": 0.5},
        {"hard_watermark": 1.5},
        {"retry_limit": -1},
        {"retry_limit": 2, "retry_backoff_ns": 0},
        {"cache_pages": -1}])
    def test_a_config_validate_refuses_builds_no_executor(self, knobs):
        config = ServiceConfig(**knobs)
        with pytest.raises(ValueError):
            config.validate()
        with pytest.raises(ValueError):
            ShardExecutor(make_controller(), 0, TENANTS, config)

    def test_per_run_inputs_must_align_with_the_tenants(self):
        for key in ("wear_budgets", "cache_tenants", "cache_tenant_caps"):
            with pytest.raises(ValueError, match="align"):
                ShardExecutor(make_controller(), 0, TENANTS, DEFAULTS,
                              **{key: [None]})


class TestInterruptedReplay:
    """A replay cut short by a power failure must not leak its hooks."""

    def test_power_failure_restores_all_three_hooks(self):
        controller = make_controller(store_data=True)
        store, bus = controller.store, controller.events

        def bystander(page):
            """Someone else's relocation listener."""

        store.copy_listeners.append(bystander)
        config = ServiceConfig(cache_pages=16, attribute_wear=True)
        requests = mixed_slice(5, rows=1200, write_share=0.8)
        with KillSwitch(controller.array, kill_at=40), \
                pytest.raises(SimulatedPowerFailure):
            ShardExecutor(controller, 0, TENANTS, config,
                          trace=True).run(requests)
        assert store.copy_listeners == [bystander]
        assert controller.flush_listeners == []
        assert controller.array.pre_op_hooks == []
        assert "flush_one" not in controller.__dict__
        assert bus.subscriber_count() == 0 and not bus.active
        # A second attributed executor is not refused by a stale hook.
        try:
            ShardExecutor(controller, 0, TENANTS, config,
                          trace=True).run(requests[:50])
        except RuntimeError as exc:  # pragma: no cover - the regression
            pytest.fail(f"stale hook survived the interrupted run: {exc}")

    HOOKED = ServiceConfig(cache_pages=16, attribute_wear=True)

    def hooked_replay(self):
        """A started three-hook replay with one stretch already fed."""
        controller = make_controller(store_data=True)
        executor = ShardExecutor(controller, 0, TENANTS, self.HOOKED,
                                 trace=True)
        requests = mixed_slice(5, rows=1200, write_share=0.8)
        executor.start()
        executor.feed(requests[:300])
        assert len(controller.store.copy_listeners) == 1
        assert len(controller.flush_listeners) == 1
        assert controller.events.subscriber_count() == 1
        return controller, executor, requests

    def assert_unhooked(self, controller):
        assert controller.store.copy_listeners == []
        assert controller.flush_listeners == []
        assert controller.events.subscriber_count() == 0
        assert not controller.events.active

    def test_power_failure_inside_a_later_feed_restores_the_hooks(self):
        controller, executor, requests = self.hooked_replay()
        with KillSwitch(controller.array, kill_at=40), \
                pytest.raises(SimulatedPowerFailure):
            executor.feed(requests[300:])
        self.assert_unhooked(controller)
        # The dead replay took its unfolded latencies with it.
        assert executor._replay.gi_frame is None

    def test_finish_and_abandonment_both_remove_the_hooks(self):
        controller, executor, requests = self.hooked_replay()
        executor.feed(requests[300:])
        assert executor.finish()["flushes"]
        self.assert_unhooked(controller)
        controller, executor, _ = self.hooked_replay()
        del executor  # never finished: the open replay is closed for it
        gc.collect()
        self.assert_unhooked(controller)
