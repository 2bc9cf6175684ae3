"""Span tracing of drsinet's public functions, installed from outside.

`Tracer.install` replaces each target function (and each module binding of
it made by ``from ... import``) with a wrapper that records a span: name,
start, end, parent span and call id.  Spans stay in memory until
`Tracer.write`.  Functions called thousands of times per operation are
totalled per operation instead of recorded one by one: `oks` by calls and
time, `box_iou` by calls only.  A target
that no longer exists is listed in `Tracer.absent`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute); "Class.method" wraps a method.
SPANS = {
    "network.build_model": ("drsinet.network", "build_model"),
    "profiler.load_weights": ("drsinet.profiler", "load_weights"),
    "profiler.save_weights": ("drsinet.profiler", "save_weights"),
    "network.model": ("drsinet.network", "Model.forward"),
    "network.backbone": ("drsinet.network", "Backbone.forward"),
    "network.neck": ("drsinet.network", "Neck.forward"),
    "interactions.resgnconv": ("drsinet.interactions", "ResGnConv.forward"),
    "blocks.c3dr": ("drsinet.blocks", "C3dr.forward"),
    "blocks.cbam": ("drsinet.blocks", "Cbam.forward"),
    "decode.decode": ("drsinet.decode", "decode"),
    "decode.nms": ("drsinet.decode", "nms"),
    "decode.write_results": ("drsinet.decode", "write_results"),
    "decode.read_ground_truth": ("drsinet.decode", "read_ground_truth"),
    "decode.read_results": ("drsinet.decode", "read_results"),
    "decode.evaluate": ("drsinet.decode", "evaluate"),
}
# spans whose work figure is the length of the returned list
SIZED = {"decode.decode", "decode.nms"}
AGGREGATED = {"decode.oks": ("drsinet.decode", "oks")}
COUNTED = {"decode.box_iou": ("drsinet.decode", "box_iou")}
# the span of one whole operation
ROOT_SPAN = "cli.main"

# tensor primitive -> metric group; the alias helpers (silu, add, mul, ...)
# call these through the module, so wrapping the primitive covers them.
TENSOR_GROUPS = {
    "conv2d": "conv2d", "depthwise_conv2d": "depthwise_conv2d",
    "batch_norm": "batch_norm", "layer_norm": "layer_norm",
    "activation": "activation",
    "elementwise": "elementwise", "broadcast_mul": "elementwise", "scale": "elementwise",
    "max_pool": "pool", "global_avg_pool": "pool", "global_max_pool": "pool",
    "channel_mean": "pool", "channel_max": "pool",
    "concat_channels": "data_movement", "split_channels": "data_movement",
    "upsample_nearest2x": "data_movement", "space_to_depth_2x2": "data_movement",
}


def _numel(shape):
    n = 1
    for d in shape:
        n *= d
    return n


def tensor_macs(op, args, kwargs, out):
    """MACs of one primitive by the README convention, from its shapes."""
    group = TENSOR_GROUPS[op]
    if group in ("conv2d", "depthwise_conv2d"):
        n, _, ho, wo = out.shape
        weight = args[1] if len(args) > 1 else kwargs["weight"]
        return n * ho * wo * _numel(weight.shape)
    if op in ("global_avg_pool", "channel_mean"):
        return _numel((args[0] if args else kwargs["x"]).shape)
    if group in ("batch_norm", "layer_norm", "activation", "elementwise"):
        return _numel(out.shape)
    return 0


def tensor_span_name(op, args, kwargs):
    if op == "conv2d":
        weight = args[1] if len(args) > 1 else kwargs["weight"]
        return "tensor.conv2d_1x1" if weight.shape[2] == 1 else "tensor.conv2d_kxk"
    return "tensor." + TENSOR_GROUPS[op]


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, call, self_s, work]
        self.totals = {}     # (name, call) -> [calls, seconds] of aggregated targets
        self._cells = {}     # name -> running [calls, seconds] of the open operation
        self.absent = []
        self.call = None
        self._stack = []     # open frames: [start, child_s, span index]
        self._patches = []
        self._t0 = perf_counter()

    # -- installation -----------------------------------------------------

    def install(self):
        self.absent = []
        for name, (mod, attr) in SPANS.items():
            self._patch(name, mod, attr, self._span_wrapper)
        for name, (mod, attr) in AGGREGATED.items():
            self._patch(name, mod, attr, self._aggregate_wrapper)
        for name, (mod, attr) in COUNTED.items():
            self._patch(name, mod, attr, self._count_wrapper)
        for op in TENSOR_GROUPS:
            self._patch(op, "drsinet.tensor", op, self._tensor_wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, name, mod, attr, make):
        module = sys.modules[mod]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            original = cls.__dict__.get(meth) if cls is not None else None
            if original is None:
                self.absent.append(name)
                return
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make(name, original))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(name)
            return
        wrapper = make(name, original)
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith("drsinet") \
                    and vars(m).get(attr) is original:
                self._patches.append((m, attr, original))
                setattr(m, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1][2] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.call, 0.0, 0])
        frame = [perf_counter(), 0.0, idx]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        if self._stack:
            self._stack[-1][1] += dur
        span = self.spans[frame[2]]
        span[1], span[2], span[5] = frame[0], end, dur - frame[1]
        return span

    def _span_wrapper(self, name, fn):
        sized = name in SIZED

        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = self._close(frame)
            if sized:
                span[6] = len(out)
            return out
        return wrapper

    def _tensor_wrapper(self, op, fn):
        def wrapper(*args, **kwargs):
            frame = self._open(tensor_span_name(op, args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                span = self._close(frame)
            span[6] = tensor_macs(op, args, kwargs, out)
            return out
        return wrapper

    def _aggregate_wrapper(self, name, fn):
        stack, cell = self._stack, [0, 0.0]
        self._cells[name] = cell

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                if stack:
                    stack[-1][1] += dur
                cell[0] += 1
                cell[1] += dur
        return wrapper

    def _count_wrapper(self, name, fn):
        cell = [0, 0.0]
        self._cells[name] = cell

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- operations and output -------------------------------------------

    def run(self, call_id, fn, *args):
        """Run ``fn(*args)`` as the root span of operation ``call_id``."""
        self.call = call_id
        for cell in self._cells.values():
            cell[:] = [0, 0.0]
        frame = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(frame)
            self.call = None
            for target, cell in self._cells.items():
                if cell[0]:
                    self.totals[(target, call_id)] = list(cell)

    def write(self, path, header):
        """Write a header line, every span, then the aggregated counters."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, absent=self.absent)) + "\n")
            for i, (name, start, end, parent, call, self_s, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - self._t0,
                                     "end": end - self._t0, "parent": parent,
                                     "call": call, "self_s": self_s, "work": work}) + "\n")
            for (name, call), (n, s) in self.totals.items():
                fh.write(json.dumps({"name": name, "call": call, "count": n,
                                     "total_s": s}) + "\n")


# Per-layer metrics in the order BENCHMARK.json lists them.  Times are
# seconds per traced operation; "_s" on a tensor group is self time, on a
# network/blocks/interactions/decode layer inclusive time.
TENSOR_TIMES = ("conv2d_1x1", "conv2d_kxk", "depthwise_conv2d", "batch_norm",
                "layer_norm", "activation", "elementwise", "pool", "data_movement")
LAYER_UNITS = {
    "network.build_model_s": "s", "profiler.load_weights_s": "s",
    "profiler.save_weights_s": "s",
    "network.backbone_s": "s", "network.neck_s": "s", "network.heads_s": "s",
    "interactions.resgnconv_s": "s", "blocks.c3dr_s": "s", "blocks.cbam_s": "s",
    **{f"tensor.{g}_s": "s" for g in TENSOR_TIMES},
    "tensor.calls": "count", "tensor.macs": "count",
    "tensor.conv2d_gmacs_per_s": "GMAC/s", "tensor.depthwise_gmacs_per_s": "GMAC/s",
    "decode.decode_s": "s", "decode.candidates": "count",
    "decode.nms_s": "s", "decode.box_iou_calls": "count", "decode.nms_kept": "count",
    "decode.nms_keep_ratio": "ratio", "decode.write_results_s": "s",
    "decode.read_ground_truth_s": "s", "decode.read_results_s": "s",
    "decode.evaluate_s": "s", "decode.oks_s": "s", "decode.oks_calls": "count",
    "cli.other_s": "s", "trace.call_s": "s", "trace.overhead_share": "ratio",
    "trace.accounted_share": "ratio",
}

# Spans that together cover one operation without overlap (with cli.other_s).
PARTITION = ("network.build_model", "profiler.load_weights", "network.backbone",
             "network.neck", "network.heads", "decode.decode", "decode.nms",
             "decode.write_results", "decode.read_ground_truth", "decode.read_results",
             "decode.evaluate", "cli.other")


def layer_metrics(tracer, call_ids, setup_ids, overhead_share):
    """Per-layer metrics over the traced operations ``call_ids``; the save
    time is taken per set-up repetition in ``setup_ids``."""
    calls, setups = set(call_ids), set(setup_ids)
    incl, self_s, work, count = (defaultdict(float), defaultdict(float),
                                 defaultdict(int), defaultdict(int))
    save_s = 0.0
    for name, start, end, _, call, s, w in tracer.spans:
        if call in calls:
            incl[name] += end - start
            self_s[name] += s
            work[name] += w
            count[name] += 1
        elif call in setups and name == "profiler.save_weights":
            save_s += end - start
    for (name, call), (n, s) in tracer.totals.items():
        if call in calls:
            count[name] += n
            incl[name] += s
    incl["network.heads"] = incl["network.model"] - incl["network.backbone"] - incl["network.neck"]
    incl["cli.other"] = self_s[ROOT_SPAN]
    n = len(calls)
    per = {f"{name}_s": incl[name] / n for name in PARTITION}
    per.update({f"tensor.{g}_s": self_s[f"tensor.{g}"] / n for g in TENSOR_TIMES})
    conv = ("tensor.conv2d_1x1", "tensor.conv2d_kxk")
    conv_s = sum(self_s[c] for c in conv)
    dw_s = self_s["tensor.depthwise_conv2d"]
    tensor_names = [name for name in count if name.startswith("tensor.")]
    candidates = work["decode.decode"]
    per.update({
        "profiler.save_weights_s": save_s / len(setups) if setups else 0.0,
        "interactions.resgnconv_s": incl["interactions.resgnconv"] / n,
        "blocks.c3dr_s": incl["blocks.c3dr"] / n,
        "blocks.cbam_s": incl["blocks.cbam"] / n,
        "tensor.calls": sum(count[t] for t in tensor_names) / n,
        "tensor.macs": sum(work[t] for t in tensor_names) / n,
        "tensor.conv2d_gmacs_per_s": sum(work[c] for c in conv) / conv_s / 1e9 if conv_s else 0.0,
        "tensor.depthwise_gmacs_per_s":
            work["tensor.depthwise_conv2d"] / dw_s / 1e9 if dw_s else 0.0,
        "decode.candidates": candidates / n,
        "decode.box_iou_calls": count["decode.box_iou"] / n,
        "decode.nms_kept": work["decode.nms"] / n,
        "decode.nms_keep_ratio": work["decode.nms"] / candidates if candidates else 0.0,
        "decode.oks_s": incl["decode.oks"] / n,
        "decode.oks_calls": count["decode.oks"] / n,
        "trace.call_s": incl[ROOT_SPAN] / n,
        "trace.overhead_share": overhead_share,
    })
    per["trace.accounted_share"] = (sum(per[f"{name}_s"] for name in PARTITION)
                                    / per["trace.call_s"])
    return {name: {"value": per[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
