"""Simulator facade: run a program on a configured core, collect results.

This is the public entry point of :mod:`repro.core`::

    from repro.core import sandy_bridge_config, simulate
    result = simulate(program, sandy_bridge_config(), max_instructions=50_000)
    print(result.stats.ipc, result.stats.mpki, result.energy.total_nj)

Observability: pass ``observer=`` (a
:class:`~repro.obs.events.PipelineObserver`) to trace the run, and/or
``manifest_path=`` to write the versioned machine-readable run manifest
(config + workload identity + full metrics snapshot) after the run.
"""

from dataclasses import dataclass

from repro.core.config import CoreConfig, sandy_bridge_config
from repro.core.pipeline import Pipeline
from repro.core.stats import SimStats
from repro.energy.mcpat import EnergyModel, EnergyReport
from repro.obs.export import run_manifest, write_json


@dataclass
class SimResult:
    """Everything one simulation produced."""

    program_name: str
    config: CoreConfig
    stats: SimStats
    energy: EnergyReport
    pipeline: Pipeline  # kept for deep inspection (MSHR histogram, caches)

    @property
    def ipc(self):
        return self.stats.ipc

    def effective_ipc(self, baseline_instructions):
        """The paper's "effective IPC": baseline work per modified cycle.

        ``instructions_baseline / cycles_scheme`` (Section VII) — credits a
        CFD/DFD binary only with the *useful* work of the unmodified binary,
        so instruction overhead cannot inflate its IPC.
        """
        if self.stats.cycles == 0:
            return 0.0
        return baseline_instructions / self.stats.cycles

    def mshr_histogram(self):
        """Per-cycle L1D MSHR occupancy histogram (paper Fig 25a)."""
        return dict(self.pipeline.mshr.occupancy_histogram)

    def metrics_snapshot(self):
        """Flat {metric_name: value} over every pipeline component.

        The stats metrics read this result's :attr:`stats` (a live run's
        are the pipeline's own).
        """
        metrics = self.pipeline.metrics(self.stats)
        metrics["energy.total_nj"] = self.energy.total_nj
        return metrics

    def manifest(self, workload=None, run=None, supervision=None):
        """The versioned run-manifest dict (see docs/OBSERVABILITY.md)."""
        return run_manifest(self, workload=workload, run=run,
                            supervision=supervision)

    def write_manifest(self, path, workload=None, run=None, supervision=None):
        """Write the run manifest as JSON; returns *path*."""
        return write_json(path, self.manifest(workload=workload, run=run,
                                              supervision=supervision))

    def summary(self):
        info = self.stats.summary()
        info["program"] = self.program_name
        info["config"] = self.config.name
        info["energy_nj"] = round(self.energy.total_nj, 1)
        return info


class Simulator:
    """Reusable wrapper binding a program to a core configuration."""

    def __init__(self, program, config=None):
        self.program = program
        self.config = config if config is not None else sandy_bridge_config()

    def run(self, max_instructions=None, warmup_instructions=0, observer=None):
        """Simulate and return a :class:`SimResult`."""
        if max_instructions is not None:
            # Let the perfect-prediction oracle pre-run far enough.
            self.config._oracle_horizon = (
                warmup_instructions + max_instructions + 50_000
            )
        pipeline = Pipeline(self.program, self.config)
        if observer is not None:
            pipeline.attach_observer(observer)
        stats = pipeline.run(
            max_instructions=max_instructions,
            warmup_instructions=warmup_instructions,
        )
        energy = EnergyModel(self.config).report(stats)
        return SimResult(
            program_name=self.program.name or "<unnamed>",
            config=self.config,
            stats=stats,
            energy=energy,
            pipeline=pipeline,
        )


def simulate(program, config=None, max_instructions=None, warmup_instructions=0,
             observer=None, manifest_path=None, workload=None,
             supervision=None):
    """One-shot convenience wrapper around :class:`Simulator`.

    When *manifest_path* is given, the run manifest (optionally carrying
    the *workload* identity dict and the *supervision* knobs the caller
    ran under — a :class:`~repro.rel.supervise.SupervisionPolicy` or its
    ``to_dict()`` form) is written there after the simulation.
    """
    result = Simulator(program, config).run(
        max_instructions, warmup_instructions, observer=observer
    )
    if manifest_path is not None:
        if supervision is not None and hasattr(supervision, "to_dict"):
            supervision = supervision.to_dict()
        result.write_manifest(
            manifest_path,
            workload=workload,
            run={
                "max_instructions": max_instructions,
                "warmup_instructions": warmup_instructions,
            },
            supervision=supervision,
        )
    return result
