"""Per-process resource accounting for sweep telemetry.

A sweep worker wraps each simulation point in a
:func:`ResourceSample.capture` pair and ships the
:func:`ResourceSample.delta` back with the result, so every
:class:`~repro.perf.sweep.SweepOutcome` can say what the point actually
cost the host: wall-clock seconds, user/system CPU seconds and the
process's peak resident set size.

Peak RSS (``ru_maxrss``) is a *process-lifetime high-water mark*, not a
per-point delta — a pool worker that simulated a large point earlier
reports at least that peak for every later point.  It is still the right
number for capacity planning ("how big does one worker get"), which is
why it is recorded as-is and named ``maxrss_kb`` rather than disguised
as a delta.  Linux reports ``ru_maxrss`` in KiB; macOS in bytes — values
are normalised to KiB here.
"""

import os
import sys
import time
from dataclasses import dataclass

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX host
    _resource = None


def _maxrss_kb():
    """Process peak RSS in KiB (0 where the resource module is absent)."""
    if _resource is None:  # pragma: no cover - non-POSIX host
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        peak //= 1024
    return int(peak)


@dataclass(frozen=True)
class ResourceSample:
    """One instant of this process's clocks: wall, CPU, peak RSS."""

    wall: float
    cpu_user: float
    cpu_system: float
    maxrss_kb: int

    @classmethod
    def capture(cls):
        if _resource is not None:
            usage = _resource.getrusage(_resource.RUSAGE_SELF)
            user, system = usage.ru_utime, usage.ru_stime
        else:  # pragma: no cover - non-POSIX host
            times = os.times()
            user, system = times.user, times.system
        return cls(
            wall=time.perf_counter(),
            cpu_user=user,
            cpu_system=system,
            maxrss_kb=_maxrss_kb(),
        )

    def delta(self, end):
        """Usage between this sample and a later *end* sample.

        Returns the JSON-safe dict recorded in telemetry events, journal
        lines and ``SweepOutcome.resources``.  ``maxrss_kb`` is the end
        sample's high-water mark (see the module docstring).
        """
        return {
            "wall_seconds": round(end.wall - self.wall, 6),
            "cpu_user_seconds": round(end.cpu_user - self.cpu_user, 6),
            "cpu_system_seconds": round(end.cpu_system - self.cpu_system, 6),
            "cpu_seconds": round(
                (end.cpu_user - self.cpu_user)
                + (end.cpu_system - self.cpu_system),
                6,
            ),
            "maxrss_kb": end.maxrss_kb,
        }
