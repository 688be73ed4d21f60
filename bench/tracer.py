"""Span tracer that wraps the package's public functions from outside.

Each traced function is replaced, in every gsicdetect module that holds a
binding to it, by a wrapper that records a span: name, start, end, parent
span and op id.  Spans are kept in memory; per-layer call counts and self
times are computed from them afterwards.  Nothing in the package itself
is edited, so the untraced benchmark runs the package exactly as shipped.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# (module, function) pairs; the metric prefix is "<module>.<function>".
# states.from_matrix is the DensityMatrix.from_matrix classmethod.
LAYERS = (
    ("operator_basis", "gell_mann_basis"),
    ("gsic", "feasible_t"),
    ("gsic", "construct_gsic"),
    ("gsic", "validate_gsic"),
    ("gsic", "write_gsic"),
    ("gsic", "read_gsic"),
    ("states", "isotropic"),
    ("states", "bell_diagonal"),
    ("states", "diagonal_mixture"),
    ("states", "random_separable"),
    ("states", "from_matrix"),
    ("states", "read_state"),
    ("criteria", "j_bipartite"),
    ("criteria", "detect_bipartite"),
    ("criteria", "j_multipartite"),
    ("oracle", "ppt_test"),
    ("cli", "main"),
)

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Records spans around the LAYERS functions while an op is active.

    Calls made while no op is active (set-up, correctness checks) pass
    through the wrappers unrecorded.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self) -> None:
        """Rebind every binding of each traced function to its wrapper."""
        from gsicdetect.states import DensityMatrix

        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "gsicdetect"
                                         or key.startswith("gsicdetect."))]
        for mod_name, fn_name in LAYERS:
            name = f"{mod_name}.{fn_name}"
            if name == "states.from_matrix":
                original = DensityMatrix.__dict__["from_matrix"]
                wrapped = classmethod(self._wrap(name, original.__func__))
                self._rebind(DensityMatrix, "from_matrix", original, wrapped)
                continue
            original = getattr(sys.modules[f"gsicdetect.{mod_name}"], fn_name)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, original, wrapped)

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_totals(self, first: int = 0) -> dict[str, tuple[int, float]]:
        """Call count and self time per layer over spans[first:].

        Self time is a span's duration minus the durations of its direct
        children; children never overlap because one thread makes calls.
        """
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None and span.parent >= first:
                child_time[span.parent - first] += span.end - span.start
        totals = {name: (0, 0.0) for name in LAYER_NAMES}
        for span, inner in zip(spans, child_time):
            calls, self_s = totals[span.name]
            totals[span.name] = (calls + 1, self_s + (span.end - span.start) - inner)
        return totals

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": span.name,
                                      "start": span.start, "end": span.end,
                                      "parent": span.parent, "op": span.op})
                          + "\n")
