"""Section 6 extensions through the sharded service.

The parallel flush scheduler attaches to an individual shard's
controller exactly as it does to a standalone one.
"""

from repro.ext import ParallelFlushScheduler
from repro.service import EnvyService, ServiceConfig


def make_service(num_shards=2):
    return EnvyService(ServiceConfig(
        num_shards=num_shards, num_segments=4, pages_per_segment=16,
        store_data=True, prewarm_turnovers=0.0))


class TestShardParallelFlush:
    def test_scheduler_attaches_to_a_shard(self):
        service = make_service()
        controller = service.shard(0)
        scheduler = ParallelFlushScheduler(controller)
        page_bytes = service.config.page_bytes
        for page in range(controller.buffer.capacity_pages):
            controller.write(page * page_bytes, bytes([page % 251]))
        batch = scheduler.flush_batch()
        assert batch.size >= 1
        # Other shards are untouched by shard 0's flush traffic.
        assert service.shard(1).metrics.flushes == 0
        controller.check_consistency()
