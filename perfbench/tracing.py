"""Span tracer for the benchmark's traced run.

The package imports every name into its caller with `from .x import y`, so a
layer's function is wrapped where its caller looks it up (for example
`scmn.sim.sample_graph`, not `scmn.ensemble.sample_graph`). Each wrapped call
records one span: name, start, end and the index of the enclosing span. Spans
stay in memory in flat arrays, are written out when the run ends, and every
wrapped attribute is put back on exit, also when the run raises.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (span name, module, attribute path inside the module). The `gf2` entries are
# the calls from `sim` into gf2; gf2's calls to itself are not counted.
# `ChannelFamily` is a class, but `de` and `sim` only call it to construct.
TARGETS = (
    ("de.threshold", "scmn.de", "threshold"),
    ("de.run_de", "scmn.de", "run_de"),
    ("de.ebp_trace", "scmn.de", "ebp_trace"),
    ("de.sweep", "scmn.de", "DensityEvolution.sweep"),
    ("de.staged_round", "scmn.de", "DensityEvolution.staged_round"),
    ("de.fpoly", "scmn.de", "DensityEvolution.fpoly"),
    ("channel.ChannelFamily", "scmn.de", "ChannelFamily"),
    ("channel.ChannelFamily", "scmn.sim", "ChannelFamily"),
    ("channel.transfer_poly", "scmn.de", "transfer_poly"),
    ("channel.dimension_distribution", "scmn.de", "dimension_distribution"),
    ("channel.dimension_distribution", "scmn.sim", "dimension_distribution"),
    ("ensemble.sample_graph", "scmn.sim", "sample_graph"),
    ("sim.run_experiment", "scmn.sim", "run_experiment"),
    ("sim.decode_trial", "scmn.sim", "decode_trial"),
    ("sim.sample_noise", "scmn.sim", "_sample_symbol_noise"),
    ("sim.table", "scmn.sim", "DetectorTables.table"),
    ("sim.detector_messages", "scmn.sim", "detector_messages"),
    ("gf2.rref_bits", "scmn.sim", "rref_bits"),
    ("gf2.intersect", "scmn.sim", "intersect"),
    ("gf2.zero_coordinate_mask", "scmn.sim", "zero_coordinate_mask"),
    ("gf2.solve_in_span", "scmn.sim", "solve_in_span"),
    ("gf2.sample_subspace", "scmn.sim", "sample_subspace"),
    ("gf2.enumerate_subspaces", "scmn.sim", "enumerate_subspaces"),
)


def resolve(module: str, path: str):
    """(owner, attribute name) for a dotted path inside a module."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Context manager: wraps every target on entry and restores it on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for name, module, path in TARGETS:
                self._wrap(name, *resolve(module, path))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, owner, attr: str) -> None:
        # Read the raw attribute: for a method this is the plain function,
        # which binds again when the wrapper is stored on the class.
        original = vars(owner)[attr]
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        open_spans = self._open
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0)
            open_spans.append(idx)
            start.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as arrays (copies); times in ns from an arbitrary origin."""
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id),
            "parent": np.array(self.parent),
            "start": np.array(self.start),
            "end": np.array(self.end),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.spans())


def layer_stats(spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, and the duration of
    each call. Self time is a span's duration minus that of its direct
    children, which never overlap one another in a single thread."""
    dur = (spans["end"] - spans["start"]).astype(np.float64) / 1e9
    parent = spans["parent"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - child
    stats = {}
    for nid, name in enumerate(spans["names"]):
        mask = spans["name_id"] == nid
        stats[str(name)] = {
            "calls": int(mask.sum()),
            "s": float(dur[mask].sum()),
            "self_s": float(own[mask].sum()),
            "durations": dur[mask],
        }
    return stats
