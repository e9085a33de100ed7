"""Layer spans recorded from outside the program.

A :class:`Tracer` wraps public calls of the program's modules (the
``PROBES`` table) for the length of one traced run and restores them
afterwards.  Each wrapped call records a span ``(name, start, end,
parent)`` in memory; spans of one run share the tracer's ``run_id``.  A call
into a layer whose span is already open (e.g. ``run_fl_round`` delegating to
``FederationEngine.run_round``) joins the open span instead of nesting a
second one, so a layer's busy time is never counted twice.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import uuid
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute path).  A dotted attribute is a method of a
# class in that module; a plain one is a function as that module binds it,
# patched in every loaded ``repro`` module that imported it: the
# strategies' own ``run_fl_round`` bindings, and FLIPS's
# ``select_num_clusters`` next to ShiftEx's, so ``clustering.select_k``
# counts both.
PROBES: tuple[tuple[str, str, str], ...] = (
    ("nn.train", "repro.federation.party", "Party.local_train"),
    ("nn.eval", "repro.federation.party", "Party.evaluate"),
    ("nn.embed", "repro.federation.party", "Party.embeddings_with_labels"),
    ("data.window", "repro.data.federated",
     "FederatedShiftDataset.party_window"),
    ("data.window", "repro.data.federated",
     "FederatedShiftDataset.virtual_party_window"),
    ("detection.report", "repro.core.server", "compute_party_report"),
    ("clustering.select_k", "repro.core.server", "select_num_clusters"),
    ("experts.match", "repro.core.server", "match_cluster_to_expert"),
    ("experts.match", "repro.experts.matching", "WindowMatchScorer.match"),
    ("experts.consolidate", "repro.core.server", "consolidate_experts"),
    ("core.shift_response", "repro.core.server",
     "ShiftExStrategy.start_window"),
    ("core.window_close", "repro.core.server", "ShiftExStrategy.end_window"),
    ("federation.round", "repro.federation.rounds", "run_fl_round"),
    ("federation.round", "repro.federation.async_engine",
     "FederationEngine.run_round"),
    ("params.combine", "repro.utils.params", "ParamBank.weighted_combine"),
    ("params.combine", "repro.utils.params",
     "ParamBank.weighted_combine_many"),
    ("privacy.session", "repro.privacy.secure_aggregation",
     "SecureAggregationSession.__init__"),
    ("privacy.seal", "repro.privacy.secure_aggregation",
     "SecureAggregationSession.seal_row"),
    ("privacy.unseal", "repro.privacy.secure_aggregation",
     "SecureAggregationSession.unseal_row"),
    ("privacy.combine", "repro.privacy.secure_aggregation",
     "SecureAggregationSession.combine_rows"),
    ("privacy.recover", "repro.privacy.secure_aggregation",
     "SecureAggregationSession.recover"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in PROBES))


def _samples_trained(args, kwargs, update) -> int:
    """Samples one ``Party.local_train`` call pushed through the model."""
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    return int(update.num_samples) * int(config.epochs)


# Extra per-layer work counters: span name -> (counter, f(args, kwargs, out)).
COUNTERS = {"nn.train": ("samples", _samples_trained)}


class Tracer:
    """In-memory span recorder; use as a context manager around one run."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        # One [name, start, end, parent index] list per span, in start order.
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for name, module_name, attr in PROBES:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth, name)
                continue
            original = getattr(module, attr)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, attr, None) is original):
                    self._patch(mod, attr, name)
        return self

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ reporting

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, ``busy_s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                  for layer in LAYERS}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            entry = totals[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - covered
        return totals

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line (times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": index, "name": name,
                    "start": start - origin, "end": end - origin,
                    "parent": parent if parent >= 0 else None}) + "\n")
