"""End-to-end composition: forward, decode, suppression, file round trip,
evaluation; plus the concurrent-forward contract."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from drsinet import decode as D
from drsinet.network import ModelConfig, build_model
from drsinet.tensor import tensor


def mini_config(**overrides):
    base = dict(variant="custom", width_mult=0.005, depth_mult=0.2,
                cbam_reduction=4, neck="asi_pan")
    base.update(overrides)
    return ModelConfig(**base)


def test_forward_decode_eval_pipeline(tmp_path, rng):
    cfg = mini_config()
    model = build_model(cfg, seed=7)
    x = tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
    outs = model(x)

    dets = D.Detections.concatenate([
        D.decode(head, stride, anchors, conf_threshold=0.2)
        for head, stride, anchors in zip(outs, cfg.strides, cfg.anchors)])
    assert len(dets)
    kept = D.nms(dets, 0.65)
    assert len(kept)

    # the top detection, treated as its own annotation, must score OKS 1.0
    top = int(np.argmax(kept.scores))
    gt_kps = kept.keypoints[top].copy()
    gt_kps[:, 2] = 2
    gt = D.GroundTruthInstance(keypoints=gt_kps, area=kept.area[top])
    results = tmp_path / "dets.json"
    D.write_results({0: kept}, results)
    reread = D.read_results(results)
    metrics = D.evaluate(reread, {0: [gt]})
    assert metrics["AP50"] == 1.0


def test_concurrent_forwards_bit_identical(rng):
    model = build_model(mini_config(neck="cbam_pan"), seed=11)
    x = tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))

    def run(_):
        return [o.numpy().tobytes() for o in model(x)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run, range(4)))
    assert all(r == results[0] for r in results[1:])
