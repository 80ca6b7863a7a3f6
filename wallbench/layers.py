"""The layers the traced run wraps.

Each :class:`Layer` lists the probes (functions of its ``repro``
modules, wrapped at every binding) that time it, the per-layer metrics
it reports, and the workloads on which it must record calls: the traced
run fails when one of those shows zero.  Which end-to-end metric each
layer is predicted to move, and on which workload, is in ``NOTES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from tracer import Probe

COLD, WARM, SERVE, DURABLE = ("cold-adapt", "warm-readapt", "serve-mix",
                              "serve-durable-crash")
ALL = (COLD, WARM, SERVE, DURABLE)


@dataclass
class Metered(Probe):
    """A probe plus the per-layer metric names its calls and busy time
    are reported under (``None``: not reported)."""

    calls: Optional[str] = None
    busy: Optional[str] = None


@dataclass
class Layer:
    key: str
    probes: List[Metered]
    works_on: Sequence[str] = ALL
    #: Derived per-layer metrics (see :func:`layer_metrics`).
    extra: List[str] = field(default_factory=list)


def _count_rebuild(tracer, result, *args, **kwargs) -> None:
    meta = result[0]
    executed = len(meta["executed_nodes"])
    hits = len(meta["cache_hits"])
    reused = len(meta["reused_nodes"]) + len(meta["journal_restored"])
    tracer.count("rebuild.nodes_executed", executed)
    tracer.count("rebuild.nodes_pruned", len(meta["pruned_nodes"]))
    tracer.count("rebuild.nodes_cache_hit", hits)
    tracer.count("rebuild.nodes_reused", reused)


def _request_id(service, request, *args, **kwargs) -> str:
    return request.request_id


LAYERS: List[Layer] = [
    Layer("frontend", [
        Metered("frontend.build", ["repro.core.workflow:build_extended_image"],
                calls="frontend.build_calls", busy="frontend.build_s"),
    ], works_on=(COLD, SERVE, DURABLE)),
    Layer("images", [
        Metered("images.install", [
            "repro.core.images:install_system_side_images",
            "repro.core.images:install_user_side_images",
        ], calls="images.install_calls", busy="images.install_s"),
    ]),
    Layer("pkg", [
        Metered("pkg.db_read", ["repro.pkg.database:DpkgDatabase.read_from"],
                calls="pkg.db_read_calls", busy="pkg.db_read_s"),
        Metered("pkg.db_write", ["repro.pkg.database:DpkgDatabase.write_to"],
                calls="pkg.db_write_calls", busy="pkg.db_write_s"),
        Metered("pkg.apt_install", ["repro.pkg.apt:AptFacade.install"],
                calls="pkg.apt_install_calls", busy="pkg.apt_install_s"),
    ]),
    Layer("rebuild", [
        Metered("rebuild", ["repro.core.backend.rebuild:rebuild_in_container"],
                after=_count_rebuild, calls="rebuild.calls", busy="rebuild.s"),
    ], extra=["rebuild.nodes_executed", "rebuild.nodes_pruned",
               "rebuild.nodes_cache_hit", "rebuild.reuse_ratio"]),
    Layer("plan", [
        Metered("plan", [
            "repro.core.backend.scheduler:plan_command_groups",
            "repro.core.backend.scheduler:compute_wavefronts",
            "repro.core.backend.scheduler:lpt_schedule",
        ], busy="plan.s"),
        Metered("plan.fingerprint",
                ["repro.perf.incremental:compute_plan_fingerprints"],
                busy="plan.fingerprint_s"),
        Metered("plan.diff", ["repro.perf.incremental:diff_plan"],
                busy="plan.diff_s"),
    ]),
    Layer("fleet", [
        Metered("fleet.run_wave", ["repro.resilience.fleet:WorkerFleet.run_wave"],
                calls="fleet.waves", busy="fleet.run_wave_s"),
    ], works_on=(COLD, SERVE, DURABLE)),
    Layer("toolchain", [
        Metered("toolchain.exec", [
            "repro.toolchain.drivers:CompilerDriver.execute",
            "repro.toolchain.archiver:run_ar",
        ], calls="toolchain.exec_calls", busy="toolchain.exec_s"),
        Metered("simbin.decode", [
            "repro.simbin:read_program_marker",
            "repro.simbin:read_artifact_payload",
        ], calls="simbin.decode_calls", busy="simbin.decode_s"),
    ]),
    Layer("redirect", [
        Metered("redirect", ["repro.core.backend.redirect:redirect_in_container"],
                calls="redirect.calls", busy="redirect.s"),
    ]),
    Layer("oci", [
        Metered("oci.flatten", ["repro.oci.apply:flatten_layers"],
                calls="oci.flatten_calls", busy="oci.flatten_s"),
        Metered("oci.layer_digest", ["repro.oci.layer:Layer.digest"],
                calls="oci.layer_digest_calls", busy="oci.layer_digest_s"),
        Metered("registry.push", ["repro.oci.registry:ImageRegistry.push"],
                busy="registry.push_s"),
        Metered("registry.pull", ["repro.oci.registry:ImageRegistry.pull"],
                busy="registry.pull_s"),
    ]),
    Layer("cache", [
        Metered("cache.decode", [
            "repro.core.cache.storage:decode_cache",
            "repro.core.cache.storage:decode_rebuild",
            "repro.core.cache.storage:decode_rebuild_plan",
        ], busy="cache.decode_s"),
    ], extra=["cache.shared_hit_ratio", "service.deduped_requests"]),
    Layer("vfs", [
        Metered("vfs.write", ["repro.vfs.filesystem:VirtualFilesystem.write_file"],
                calls="vfs.write_calls", busy="vfs.write_s"),
        Metered("vfs.read", ["repro.vfs.filesystem:VirtualFilesystem.read_file"],
                calls="vfs.read_calls", busy="vfs.read_s"),
        Metered("vfs.clone", ["repro.vfs.filesystem:VirtualFilesystem.clone"],
                calls="vfs.clone_calls", busy="vfs.clone_s"),
    ]),
    Layer("service", [
        Metered("service.run", ["repro.service.service:AdaptationService.run"],
                busy="service.run_s"),
        Metered("service.request",
                ["repro.service.service:AdaptationService._execute"],
                context=_request_id, busy="service.request_s"),
    ], works_on=(SERVE, DURABLE), extra=["service.loop_self_s"]),
    Layer("wal", [
        Metered("wal.append", ["repro.service.wal:ServiceWAL.append"],
                calls="wal.append_calls", busy="wal.append_s"),
        Metered("wal.salvage", ["repro.service.wal:ServiceWAL.from_bytes"],
                busy="wal.salvage_s"),
        Metered("wal.restart", ["repro.service.service:AdaptationService.restart"],
                busy="wal.restart_s"),
    ], works_on=(DURABLE,), extra=["wal.bytes", "wal.reexecuted_nodes"]),
    # The service path keeps a per-request rebuild journal whether or not
    # the service itself is durable, so the journal works on serve-mix too.
    Layer("journal", [
        Metered("journal.flush", ["repro.resilience.journal:RebuildJournal.flush"],
                calls="journal.flush_calls", busy="journal.flush_s"),
    ], works_on=(SERVE, DURABLE)),
    Layer("retry", [
        Metered("retry.call", ["repro.resilience.retry:retry_call"]),
        Metered("retry.retry", ["repro.resilience.retry:RetryStats.note_retry"]),
        Metered("retry.exhausted",
                ["repro.resilience.retry:RetryStats.note_exhausted"]),
    ], works_on=(SERVE, DURABLE),
        extra=["retry.attempts", "retry.failures"]),
]

#: Whole-run numbers of the traced run.
TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.adapt_ms.p50": "ms",
    "trace.cpu_ms_per_adapt": "ms",
}

_UNITS = {
    "rebuild.reuse_ratio": "ratio",
    "cache.shared_hit_ratio": "ratio",
    "service.loop_self_s": "s",
}


def probes() -> List[Metered]:
    return [p for layer in LAYERS for p in layer.probes]


def per_layer_metrics() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    out: Dict[str, str] = {}
    for layer in LAYERS:
        for p in layer.probes:
            if p.calls:
                out[p.calls] = "count"
            if p.busy:
                out[p.busy] = "s"
        for name in layer.extra:
            out[name] = _UNITS.get(name, "count")
        out[f"{layer.key}.self_s"] = "s"
    out.update(TRACE_METRICS)
    return out


def layer_metrics(summary: Dict[str, Dict[str, float]],
                  counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values from a tracer summary and its counts."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        for p in layer.probes:
            row = summary[p.name]
            if p.calls:
                out[p.calls] = row["calls"]
            if p.busy:
                out[p.busy] = row["busy"]
        out[f"{layer.key}.self_s"] = sum(summary[p.name]["self"] for p in layer.probes)
    executed = counts.get("rebuild.nodes_executed", 0)
    hits = counts.get("rebuild.nodes_cache_hit", 0)
    reused = counts.get("rebuild.nodes_reused", 0)
    total = executed + hits + reused
    out["rebuild.nodes_executed"] = executed
    out["rebuild.nodes_pruned"] = counts.get("rebuild.nodes_pruned", 0)
    out["rebuild.nodes_cache_hit"] = hits
    out["rebuild.reuse_ratio"] = (hits + reused) / total if total else 0.0
    out["cache.shared_hit_ratio"] = hits / (hits + executed) if hits + executed else 0.0
    for name in ("service.deduped_requests", "wal.bytes", "wal.reexecuted_nodes"):
        out[name] = counts.get(name, 0)
    out["service.loop_self_s"] = summary["service.run"]["self"]
    out["retry.attempts"] = summary["retry.call"]["calls"] + summary["retry.retry"]["calls"]
    out["retry.failures"] = summary["retry.exhausted"]["calls"]
    return out


def silent_layers(workload: str, summary: Dict[str, Dict[str, float]]) -> List[str]:
    """Layers predicted to work on *workload* whose probes saw no call."""
    silent = []
    for layer in LAYERS:
        if workload not in layer.works_on:
            continue
        if not any(summary[p.name]["calls"] for p in layer.probes):
            silent.append(layer.key)
    return silent
