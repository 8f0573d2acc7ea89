"""Spans around the sweep's layer boundaries, recorded from outside sqspec.

`installed(tracer)` replaces four module attributes with timing wrappers
for the duration of a `with` block and restores the originals afterwards:

    sqspec.pipeline.run_sweep          span "pipeline.run_sweep"
    sqspec.pipeline.evolve_grid        span "squeeze_dynamics.evolve_grid"
    sqspec.squeeze_dynamics.integrate  span "squeeze_dynamics.integrate", one per mode
    sqspec.pipeline.write_outputs      span "pipeline.write_outputs"

run_sweep looks evolve_grid up in the pipeline module and evolve_grid looks
integrate up in squeeze_dynamics, so those are the attributes replaced.

Each span records its name, start, end, parent span and run id, plus the
counts its layer returns.  Spans stay in memory until `write` is called.
Untraced runs never enter `installed`, so they run the unwrapped program.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer", "installed"]


def _evolve_counts(mode_results) -> dict:
    stats = [res.stats for res in mode_results if res.stats is not None]
    return {
        "steps": sum(s.n_steps for s in stats),
        "rejected": sum(s.n_rejected for s in stats),
        "slaved_steps": sum(s.n_slaved_steps for s in stats),
        "capped_modes": sum(1 for s in stats if s.capped),
        "attempts_per_mode": [s.n_steps + s.n_rejected for s in stats],
    }


def _write_counts(paths) -> dict:
    return {"bytes": sum(Path(p).stat().st_size for p in paths)}


class Tracer:
    """In-memory span recorder; `run_id` tags every span opened after it is set."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = ""
        self._open: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "run_id": self.run_id,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.update(counts(result))
            return result

        return traced

    def select(self, name: str, run_id: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["run_id"] == run_id]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


@contextmanager
def installed(tracer: Tracer):
    from sqspec import pipeline, squeeze_dynamics

    targets = (
        (pipeline, "run_sweep", None),
        (pipeline, "evolve_grid", _evolve_counts),
        (squeeze_dynamics, "integrate", None),
        (pipeline, "write_outputs", _write_counts),
    )
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for (module, attr, original), (_, _, counts) in zip(originals, targets):
            # spans are named after the module that defines the function
            layer = original.__module__.rsplit(".", 1)[-1]
            setattr(module, attr, tracer.wrap(f"{layer}.{attr}", original, counts))
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)
