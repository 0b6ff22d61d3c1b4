"""Recovery-time scaling — full scan vs flash checkpoints.

Not a paper figure: the paper's recovery is instant because every piece
of mapping state lives in battery-backed SRAM (Section 3.2).  This
experiment measures the production alternative added by the crash-
consistency layer: rebuilding the whole controller from Flash alone
with :func:`repro.core.recovery.recover_from_flash`.

For each array size the same seeded random-overwrite workload runs to a
drained store, then recovery is timed (in modelled device nanoseconds,
``report.scan_ns``) three ways: a bare full-array scan, and checkpoint-
accelerated recovery at a coarse and a fine checkpoint cadence.  The
full scan grows with the programmed area; checkpointed recovery reads
the metadata segments plus only the slots programmed since the last
checkpoint, so its cost tracks the cadence, not the array.
"""

import random

import pytest

from repro.analysis import banner, format_table
from repro.core import EnvyConfig, EnvyController, recover_from_flash
from conftest import FULL_SCALE

#: (label, num_segments, pages_per_segment)
SIZES = [
    ("12 x 16", 12, 16),
    ("16 x 32", 16, 32),
    ("24 x 64", 24, 64),
] + ([("32 x 128", 32, 128)] if FULL_SCALE else [])

#: Checkpoint cadences (flushes between checkpoints); None = disabled.
CADENCES = [None, 32, 8]

WRITES_PER_PAGE = 3
SEED = 17


def build_drained_store(num_segments, pages_per_segment, cadence):
    config = EnvyConfig.small(num_segments=num_segments,
                              pages_per_segment=pages_per_segment,
                              checkpoint_interval_flushes=cadence)
    ctrl = EnvyController(config)
    rng = random.Random(SEED)
    page_bytes = config.page_bytes
    for _ in range(WRITES_PER_PAGE * config.logical_pages):
        page = rng.randrange(config.logical_pages)
        ctrl.write(page * page_bytes,
                   rng.randrange(256).to_bytes(1, "little") * 8)
    ctrl.drain()
    if cadence is not None:
        assert ctrl.checkpointer.enabled, ctrl.checkpointer.failure_reason
    return config, ctrl


def verify(recovered, reference):
    page_bytes = reference.config.page_bytes
    for page in range(reference.config.logical_pages):
        address = page * page_bytes
        assert recovered.read(address, page_bytes) == \
            reference.read(address, page_bytes), \
            f"recovery diverged on page {page}"


@pytest.mark.benchmark
def test_recovery_scaling(record):
    rows = []
    for label, num_segments, pages_per_segment in SIZES:
        row = [label]
        for cadence in CADENCES:
            config, ctrl = build_drained_store(
                num_segments, pages_per_segment, cadence)
            recovered, report = recover_from_flash(ctrl.array, config)
            verify(recovered, ctrl)
            second, report2 = recover_from_flash(recovered.array, config)
            verify(second, ctrl)
            mode = "scan" if cadence is None else "ckpt"
            assert report.mode == ("full-scan" if cadence is None
                                   else "checkpoint")
            row.append(f"{report.scan_ns / 1000:.1f} us "
                       f"({report.pages_scanned} pg, {mode})")
        rows.append(row)
    headers = ["Array (seg x pages)"] + [
        "no checkpoint" if c is None else f"every {c} flushes"
        for c in CADENCES]
    text = "\n".join([
        banner("Recovery time from flash: full scan vs checkpoints"),
        format_table(headers, rows),
        "",
        "scan_ns = modelled device time (page + OOB reads, checkpoint",
        "chunk reads, orphan re-reads, replayed erases).  Checkpointed",
        "recovery re-reads only slots programmed after the checkpoint,",
        "so a finer cadence buys a flatter curve; the full scan grows",
        "with every programmed page in the array.",
    ])
    record("recovery_scan", text)
