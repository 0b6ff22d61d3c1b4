"""Cross-backend consistency: same trace, same state, every substrate.

The backend boundary's core promise is that nothing below it influences
*placement*: timing hooks change how long operations are charged, media
mirrors change where bytes additionally land, factory bad blocks change
which physical segments serve which positions — but the logical page
state after a run is a pure function of the config and the host
operation stream.  This harness makes the promise executable:

1. record one seeded TPC-A run against the default Flash backend,
2. replay the identical trace against every backend under test
   (file-backed runs also reopen their image and recover, proving the
   persisted state carries the same digest),
3. compare :func:`~repro.backends.trace.state_digest` across all runs.

``python -m repro backends --check`` and the ``backend-matrix`` CI job
drive :func:`consistency_report`.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace
from typing import List, Optional, Sequence

from ..core.config import EnvyConfig
from .trace import RunTrace, record_tpca, replay_trace, state_digest

__all__ = ["default_config", "default_backends", "consistency_report",
           "run_consistency"]


def default_config(**overrides) -> EnvyConfig:
    """The harness geometry: small, with reserves for factory bads."""
    params = {"num_segments": 12, "pages_per_segment": 16,
              "reserve_segments": 2}
    params.update(overrides)
    return EnvyConfig.small(**params)


def default_backends(tmpdir: str) -> List[str]:
    """One spec per registered backend family, image files in tmpdir."""
    image = os.path.join(tmpdir, "envy-consistency.img")
    return ["flash",
            "ramdisk",
            f"file:path={image}",
            "onfi:factory_bad=1,bb_seed=7"]


def _file_reopen_digest(result) -> Optional[str]:
    """For a file-backed run: reopen the image and recover from it.

    Returns the digest of the *recovered* controller — the state that
    actually survived the simulated process restart — or None when the
    backend has no reopen.
    """
    ctrl = result.controller
    if ctrl is None or not hasattr(ctrl.array, "reopen"):
        return None
    from ..core.recovery import recover_from_flash

    reopened = ctrl.array.reopen()
    recovered, _report = recover_from_flash(reopened, ctrl.config)
    return state_digest(recovered)


def run_consistency(config: Optional[EnvyConfig] = None,
                    backends: Optional[Sequence[str]] = None,
                    transactions: int = 40, seed: int = 0,
                    tmpdir: Optional[str] = None,
                    trace: Optional[RunTrace] = None) -> dict:
    """Record once, replay everywhere, compare digests.

    Returns a JSON-safe report::

        {"reference_digest": ..., "transactions": ..., "ops": ...,
         "backends": {spec: {"digest": ..., "match": ...,
                             "total_ns": ..., "reopen_digest": ...}},
         "consistent": bool}

    A caller-supplied ``trace`` skips the recording step (the CLI uses
    this to replay a saved trace across the matrix).
    """
    own_tmp = None
    if tmpdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="envy-backends-")
        tmpdir = own_tmp.name
    try:
        base = config if config is not None else default_config()
        base = replace(base, backend=None)
        if trace is None:
            trace, reference = record_tpca(base,
                                           transactions=transactions,
                                           seed=seed)
            reference_digest = reference.digest
        else:
            reference_digest = None
        specs = (list(backends) if backends is not None
                 else default_backends(tmpdir))
        report = {
            "transactions": transactions,
            "seed": seed,
            "ops": len(trace.ops),
            "writes": trace.writes,
            "reads": trace.reads,
            "reference_digest": reference_digest,
            "backends": {},
        }
        digests = set()
        if reference_digest is not None:
            digests.add(reference_digest)
        consistent = True
        for spec in specs:
            cfg = replace(base, backend=spec)
            result = replay_trace(trace, cfg,
                                  keep_controller=True)
            reopen_digest = _file_reopen_digest(result)
            expected = reference_digest or result.digest
            match = (result.digest == expected
                     and (reopen_digest is None
                          or reopen_digest == expected))
            consistent = consistent and match
            digests.add(result.digest)
            entry = result.summary()
            entry["match"] = match
            entry["reopen_digest"] = reopen_digest
            entry["backend_name"] = getattr(result.controller.array,
                                            "backend_name", "flash")
            report["backends"][spec] = entry
            result.controller = None
        report["distinct_digests"] = len(digests)
        report["consistent"] = consistent and len(digests) == 1
        return report
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


#: Alias matching the CLI/CI vocabulary.
consistency_report = run_consistency
