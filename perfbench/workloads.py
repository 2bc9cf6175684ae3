"""The benchmark's workloads: seeded inputs, CLI operations and output checks."""

from __future__ import annotations

import gc
import json
from pathlib import Path
from time import perf_counter

import numpy as np

import refcheck
import synth
from drsinet import network, profiler, tensor

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# The weights are fixed; the seed varies the frames.  Candidate counts, and
# with them the NMS cost, depend far more on the weights than on the frame.
WEIGHT_SEED = 0

WORKLOADS = {
    # drsinet-s at 640^2: the forward is ~99% of a call.  conf 0.29 sits
    # above the score mass of the seed-0 weights, so only tens of candidates
    # (about 50-65 per frame) reach decode and NMS.  One frame per run keeps
    # the reference forward and the last round short.
    "fwd-s640": {"forward": {"config": "configs/drsinet-s.json",
                             "sizes": ((640, 640),), "conf": 0.29, "iou": 0.65}},
    # Post-processing without the heavy network.  The miniature model at the
    # default thresholds gives about 530, 800 and 1,230 candidates, so decode
    # and the O(n * kept) NMS dominate its calls (dims must be multiples of
    # 64); two COCO-style files of different sizes exercise parsing, OKS and
    # matching with no network at all.
    "dense-eval": {"forward": {"config": "configs/mini.json",
                               "sizes": ((128, 128), (128, 192), (192, 192)),
                               "conf": 0.25, "iou": 0.65},
                   "eval": {"images": (80, 240)}},
}


class Op:
    """One CLI operation of a round: argv template, output check."""

    def __init__(self, bench, key, argv, out_dir=None):
        self.bench, self.key, self.argv, self.out_dir = bench, key, argv, out_dir
        self.first = None     # first checked output, for byte identity

    def command(self, n):
        if self.out_dir is None:
            return list(self.argv), None
        out = self.out_dir / f"{self.key}-{n}.json"
        return self.argv + ["--out", str(out)], out


class ForwardBench:
    """`drsinet forward` over seeded frames of one config."""

    def __init__(self, spec, rng, work):
        self.config = str(ROOT / spec["config"])
        self.spec = spec
        self.archive = work / "weights.drsi"
        self.ops, self.frames = [], []
        (work / "out").mkdir()
        for i, (h, w) in enumerate(spec["sizes"]):
            path = work / f"frame{i}-{h}x{w}.f32"
            shape = synth.write_frame(rng, h, w, path)
            self.frames.append((path, shape))
            self.ops.append(Op(self, f"frame{i}", [
                "forward", "--config", self.config, "--weights", str(self.archive),
                "--image", str(path), "--shape", shape,
                "--conf", repr(spec["conf"]), "--iou", repr(spec["iou"]),
                "--image-id", str(i + 1)], work / "out"))

    def setup(self, tracer):
        """Build the model and write its archive; seconds per repetition."""
        cfg = network.ModelConfig.from_file(self.config)
        times = []
        for rep in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.call = f"setup-{rep}"
            t = perf_counter()
            model = network.build_model(cfg, seed=WEIGHT_SEED)
            profiler.save_weights(model, self.archive)
            times.append(perf_counter() - t)
            del model
            gc.collect()      # outside the timing: drop the model's cycles
        if tracer is not None:
            tracer.call = None
        return times

    def prepare_reference(self):
        """Head logits through the public model API, then reference decode
        and NMS per frame."""
        with open(self.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = network.ModelConfig.from_file(self.config)
        # built from another seed, so every weight comes from the archive
        model = profiler.load_weights(network.build_model(cfg, seed=1), self.archive)
        self.reference = []
        for path, shape in self.frames:
            x = np.fromfile(path, dtype="<f4").reshape([int(v) for v in shape.split(",")])
            heads = [h.numpy() for h in model(tensor.tensor(x))]
            self.reference.append(refcheck.reference_detections(
                heads, raw["strides"], raw["anchors"], self.spec["conf"],
                self.spec["iou"], raw.get("num_keypoints", 17)))

    def check(self, call):
        """Raise CheckError unless the call's detections are correct."""
        op = call["op"]
        data = call["out"].read_bytes()
        if op.first is None:
            idx = self.ops.index(op)
            refcheck.check_detections(data, self.reference[idx], image_id=idx + 1)
            op.first = data
        elif data != op.first:
            raise refcheck.CheckError(f"{op.key}: output differs from the first call")


class EvalBench:
    """`drsinet eval` over seeded synthetic COCO-style files."""

    def __init__(self, spec, rng, work):
        self.ops, self.pairs = [], []
        for n_images in spec["images"]:
            gt, pred = work / f"gt-{n_images}.json", work / f"pred-{n_images}.json"
            synth.write_coco_pair(rng, n_images, gt, pred)
            self.pairs.append((gt, pred))
            self.ops.append(Op(self, f"coco{n_images}", ["eval", "--gt", str(gt), "--pred", str(pred)]))

    def setup(self, tracer):
        return []

    def prepare_reference(self):
        self.reference = [refcheck.coco_keypoint_metrics(refcheck.load_ground_truth(gt),
                                                         refcheck.load_results(pred))
                          for gt, pred in self.pairs]

    def check(self, call):
        op = call["op"]
        if op.first is None:
            refcheck.check_metrics(call["stdout"], self.reference[self.ops.index(op)])
            op.first = call["stdout"]
        elif call["stdout"] != op.first:
            raise refcheck.CheckError(f"{op.key}: printed metrics differ from the first call")


BENCHES = {"forward": ForwardBench, "eval": EvalBench}


def make_benches(spec, rng, work):
    """One bench per part of a workload, in the spec's order."""
    return [BENCHES[kind](part, rng, work) for kind, part in spec.items()]
