"""Chrome-trace export of device kernel traces.

Thin backward-compatible wrapper over the observability layer: the event
construction now lives in
:func:`repro.obs.tracer.events_from_kernel_records`, and richer traces
(request lifecycle, mask decisions, flow arrows) come from recording a
run through :class:`repro.obs.Tracer` — see ``krisp-repro colocate
--trace-out``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence, Union

from repro.gpu.device import KernelRecord
from repro.obs.tracer import events_from_kernel_records

__all__ = ["trace_events", "export_chrome_trace"]


def trace_events(trace: Sequence[KernelRecord]) -> list[dict]:
    """Chrome trace events (complete 'X' events) for finished kernels.

    Timestamps are microseconds, as the format requires.  Each worker tag
    becomes a thread row; kernels carry their CU-mask metadata as args.
    """
    return events_from_kernel_records(trace)


def export_chrome_trace(trace: Sequence[KernelRecord],
                        path: Union[str, Path]) -> int:
    """Write a chrome://tracing JSON file; returns the event count."""
    events = trace_events(trace)
    Path(path).write_text(json.dumps({"traceEvents": events}, indent=1))
    return len(events)
