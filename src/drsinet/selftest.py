"""Self-contained property suite: one check per acceptance-grade property.

Each check returns a :class:`CheckResult`; the ``selftest`` CLI subcommand
prints one pass/fail line per check, and the pytest acceptance module asserts
them individually.  Oracles here (hand compositions, exhaustive matching,
closed forms) are deliberately independent of the code paths they verify.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import decode as D
from . import tensor as T
from .blocks import C3dr, Cbam, DrsiBlock, InvertedBottleneck
from .interactions import ResGnConv, build_scheme
from .layers import ConvBnSilu
from .network import ModelConfig, Neck, build_model
from .profiler import largest_param_layers, load_weights, profile, save_weights
from .tensor import grad_check, tensor

PARAM_BANDS = {"s": (12.3e6, 18.5e6), "m": (29.4e6, 44.2e6), "l": (63.8e6, 95.6e6)}
RATIO_TARGETS = ((960, 640, 24.6 / 10.9, 0.07), (1280, 960, 43.7 / 24.6, 0.06))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _mini_config(**overrides):
    base = dict(variant="custom", width_mult=0.005, depth_mult=0.2,
                cbam_reduction=4, neck="pan")
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# 1. channel scheme constraint
# ---------------------------------------------------------------------------

def check_channel_scheme():
    t0 = time.time()
    checked = 0
    for n in range(1, 6):
        for c in range(8, 1025, 8):
            if c % (1 << (n - 1)):
                continue
            s = build_scheme(c, n)
            if s.c_0 + s.c_q != 2 * c:
                return CheckResult("channel-scheme", False,
                                   f"violated at c={c}, n={n}")
            checked += 1
    dt = time.time() - t0
    return CheckResult("channel-scheme", dt < 1.0,
                       f"{checked} (c, n) pairs satisfy c0 + cq = 2c in {dt:.2f}s")


# ---------------------------------------------------------------------------
# 2. reduction oracle
# ---------------------------------------------------------------------------

def _manual_gconv(layer, x):
    """Independent one-order composition from the layer's own weights."""
    c = layer.scheme.c
    proj = T.conv2d(x, layer.phi_in.weight.value, layer.phi_in.bias.value)
    p0, q0 = T.split_channels(proj, [c, c])
    fq0 = T.depthwise_conv2d(q0, layer.dw.weight.value, layer.dw.bias.value, 1, 3)
    return T.conv2d(T.mul(p0, fq0), layer.phi_out.weight.value,
                    layer.phi_out.bias.value)


def check_reduction_oracle():
    rng = np.random.default_rng(101)
    layer = ResGnConv(8, n=1, residual_enabled=False).finalize(7)
    for _ in range(20):
        x = tensor(rng.normal(size=(1, 8, 5, 5)).astype(np.float32))
        if layer(x).numpy().tobytes() != _manual_gconv(layer, x).numpy().tobytes():
            return CheckResult("reduction-oracle", False,
                               "order-1 recursion differs from direct composition")
    worst = 0.0
    for n in (1, 2, 3):
        plain = ResGnConv(8, n=n, residual_enabled=False).finalize(13)
        toggled = ResGnConv(8, n=n, lam=3.0, residual_enabled=True).finalize(17)
        for (_, p1), (_, p2) in zip(plain.named_parameters(),
                                    toggled.named_parameters()):
            p2.set(p1.value.numpy().reshape(p1.logical_shape))
        toggled.residual_enabled = False
        toggled.lam = 1.0
        for _ in range(20):
            x = tensor(rng.normal(size=(1, 8, 5, 5)).astype(np.float32))
            diff = float(np.max(np.abs(plain(x).numpy() - toggled(x).numpy())))
            worst = max(worst, diff)
            if diff > 1e-5:
                return CheckResult("reduction-oracle", False,
                                   f"residual-off mismatch {diff:.2e} at n={n}")
    return CheckResult("reduction-oracle", True,
                       f"order-1 bitwise, residual-off max diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. gradient suite
# ---------------------------------------------------------------------------

def primitive_cases(seed):
    """Every tensor primitive as a function of one (1, 2, 4, 4) input, by
    name, and the generator that goes on to draw the inputs.  The first
    eleven rows take their weights from that generator and the rest from a
    second one, so rows added at the end leave the data of earlier rows as
    it was."""
    rng = np.random.default_rng(seed)
    w_c = tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
    b_c = tensor(rng.normal(size=3).astype(np.float32))
    w_d = tensor(rng.normal(size=(2, 1, 3, 3)).astype(np.float32))
    more = np.random.default_rng(seed + 1)
    w_1 = tensor(more.normal(size=(3, 2, 1, 1)).astype(np.float32))
    w_7 = tensor(more.normal(size=(2, 1, 7, 7)).astype(np.float32))
    other = tensor(more.normal(size=(1, 2, 4, 4)).astype(np.float32))
    ga = np.array([1.3, 0.7], np.float32)
    be = np.array([0.2, -0.4], np.float32)
    rm = np.array([0.1, -0.2], np.float32)
    rv = np.array([1.5, 0.8], np.float32)
    cases = {
        "conv2d": lambda x: T.conv2d(x, w_c, b_c, 1, 1),
        "depthwise_conv2d": lambda x: T.depthwise_conv2d(x, w_d, None, 1, 1),
        "batch_norm": lambda x: T.batch_norm(x, ga, be, rm, rv, eps=1e-5),
        "layer_norm": lambda x: T.layer_norm(x, ga, be, eps=1e-5),
        "silu": T.silu,
        "gelu": T.gelu,
        "sigmoid": T.sigmoid,
        "elementwise_mul": lambda x: T.mul(x, x),
        "concat_split": lambda x: T.concat_channels(T.split_channels(x, [1, 1])[::-1]),
        "upsample_nearest2x": T.upsample_nearest2x,
        "max_pool": lambda x: T.max_pool(x, 3, 1, 1),
        "conv2d_stride2": lambda x: T.conv2d(x, w_c, b_c, 2, 1),
        "conv1x1": lambda x: T.conv2d(x, w_1, b_c),
        "depthwise_stride2": lambda x: T.depthwise_conv2d(x, w_d, None, 2, 1),
        "depthwise_7x7": lambda x: T.depthwise_conv2d(x, w_7, None, 1, 3),
        "relu": T.relu,
        "scale": lambda x: T.scale(x, -1.7),
        "mul_other": lambda x: T.mul(x, other),
        "add_self": lambda x: T.add(x, x),
        "broadcast": lambda x: T.broadcast_mul(x, T.sigmoid(T.global_avg_pool(x))),
        "max_pool_5x5": lambda x: T.max_pool(x, 5, 1, 2),
        "space_to_depth": T.space_to_depth_2x2,
        "global_avg": T.global_avg_pool,
        "global_max": T.global_max_pool,
        "channel_mean": T.channel_mean,
        "channel_max": T.channel_max,
        "residual_interaction": lambda x: T.residual_interaction(x, other, 1.0 / 3.0),
    }
    return rng, cases


def _primitive_gradchecks(seed):
    rng, cases = primitive_cases(seed)
    out = []
    for name, fn in cases.items():
        err = max(grad_check(fn, tensor(rng.normal(size=(1, 2, 4, 4))
                                        .astype(np.float32)), seed=k)
                  for k in range(5))
        out.append((f"tensor.{name}", err, 1e-4))
    return out


def _interaction_gradchecks(seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in (1, 2, 3):
        layer = ResGnConv(8, n=n, lam=3.0, residual_enabled=True).finalize(23 + n)
        x = tensor(rng.normal(size=(1, 8, 5, 5)).astype(np.float32))
        out.append((f"interactions.res_gn_conv_n{n}",
                    grad_check(layer.forward, x, seed=n), 1e-4))
    return out


def _block_gradchecks(seed):
    rng = np.random.default_rng(seed)
    checks = [
        ("blocks.inverted_bottleneck", InvertedBottleneck(8, expansion=2).finalize(31),
         (1, 8, 6, 6)),
        ("blocks.drsi_block", DrsiBlock(8, order=2, expansion=2).finalize(33),
         (1, 8, 6, 6)),
        ("blocks.c3dr", C3dr(8, 16, depth=1, expansion=2).finalize(35), (1, 8, 6, 6)),
        ("blocks.cbam", Cbam(16, reduction=16, sam_kernel=3).finalize(37),
         (1, 16, 5, 5)),
    ]
    out = []
    for name, layer, shape in checks:
        x = tensor(rng.normal(size=shape).astype(np.float32))
        out.append((name, grad_check(layer.forward, x, seed=1), 1e-4))
    return out


def _network_gradchecks(seed):
    rng = np.random.default_rng(seed)
    out = []
    for kind in ("pan", "cbam_pan", "asi_pan"):
        cfg = _mini_config(neck=kind)
        neck = Neck([8, 16], cfg).finalize(41)
        down = ConvBnSilu(8, 16, 3, stride=2).finalize(43)

        def fn(x, neck=neck, down=down):
            outs = neck([x, down(x)])
            return T.concat_channels([outs[0], T.upsample_nearest2x(outs[1])])

        x = tensor(rng.normal(size=(1, 8, 8, 8)).astype(np.float32))
        out.append((f"network.neck_{kind}", grad_check(fn, x, seed=2, sample=48),
                    1e-4))

    model = build_model(_mini_config(neck="asi_pan"), seed=45)

    def fn_model(x):
        outs = model(x)
        merged = outs[0]
        for o in outs[1:]:
            up = o
            while up.shape[2] < merged.shape[2]:
                up = T.upsample_nearest2x(up)
            merged = T.add(merged, up)
        return merged

    x = tensor(rng.uniform(0, 1, size=(1, 3, 64, 64)).astype(np.float32))
    out.append(("network.end_to_end_width8",
                grad_check(fn_model, x, seed=3, sample=24), 1e-3))
    return out


def run_gradchecks(module="all", seed=0):
    groups = {
        "tensor": _primitive_gradchecks,
        "interactions": _interaction_gradchecks,
        "blocks": _block_gradchecks,
        "network": _network_gradchecks,
    }
    names = list(groups) if module == "all" else [module]
    results = []
    for name in names:
        results.extend(groups[name](seed))
    return results


def check_gradient_suite():
    t0 = time.time()
    results = run_gradchecks("all", seed=0)
    dt = time.time() - t0
    bad = [(n, e, b) for n, e, b in results if e > b]
    if bad or dt >= 300:
        worst = ", ".join(f"{n}={e:.2e}" for n, e, b in bad) or "runtime"
        return CheckResult("gradient-suite", False,
                           f"{worst} (runtime {dt:.0f}s)")
    worst = max(e / b for _, e, b in results)
    return CheckResult("gradient-suite", True,
                       f"{len(results)} checks, worst {worst:.2%} of bound, {dt:.0f}s")


# ---------------------------------------------------------------------------
# 4. complexity scaling
# ---------------------------------------------------------------------------

def check_complexity_scaling():
    t0 = time.time()
    cfg = ModelConfig(variant="s")
    gmacs = {size: profile(cfg, size).gmacs for size in (640, 960, 1280)}
    details = []
    ok = True
    for hi, lo, target, tol in RATIO_TARGETS:
        ratio = gmacs[hi] / gmacs[lo]
        ok &= abs(ratio - target) <= tol
        details.append(f"{hi}/{lo}={ratio:.3f} (target {target:.3f}+/-{tol})")
    dt = time.time() - t0
    ok &= dt < 10
    return CheckResult("complexity-scaling", ok, "; ".join(details) + f", {dt:.1f}s")


# ---------------------------------------------------------------------------
# 5. parameter bands
# ---------------------------------------------------------------------------

def check_parameter_bands():
    details = []
    for variant, (lo, hi) in PARAM_BANDS.items():
        report = profile(ModelConfig(variant=variant), 640)
        n = report.total_params
        details.append(f"{variant}={n / 1e6:.1f}M")
        if not lo <= n <= hi:
            top = "; ".join(f"{r.name}={r.params / 1e6:.2f}M"
                            for r in largest_param_layers(report))
            return CheckResult(
                "parameter-bands", False,
                f"{variant} has {n / 1e6:.1f}M outside [{lo / 1e6:.1f}M, "
                f"{hi / 1e6:.1f}M]; largest layers: {top}")
    return CheckResult("parameter-bands", True, ", ".join(details))


# ---------------------------------------------------------------------------
# 6. OKS / AP oracle
# ---------------------------------------------------------------------------

def _random_tiny_case(rng):
    gts, preds = {}, {}
    for img in range(int(rng.integers(1, 4))):
        n_gt = int(rng.integers(0, 5))
        n_det = int(rng.integers(0, 5))
        instances = []
        for _ in range(n_gt):
            kps = np.zeros((17, 3))
            center = rng.uniform(20, 120, 2)
            kps[:, 0] = center[0] + rng.uniform(-15, 15, 17)
            kps[:, 1] = center[1] + rng.uniform(-15, 15, 17)
            kps[:, 2] = rng.integers(0, 3, 17)
            if not np.any(kps[:, 2] > 0):
                kps[0, 2] = 2
            instances.append(D.GroundTruthInstance(
                keypoints=kps, area=float(rng.uniform(100, 2500))))
        gts[img] = instances
        kps, scores = np.zeros((n_det, 17, 3)), np.zeros(n_det)
        for k in range(n_det):
            if instances:
                kps[k] = instances[k % len(instances)].keypoints
            kps[k, :, 0] += rng.normal(0, rng.uniform(0.5, 15.0), 17)
            kps[k, :, 1] += rng.normal(0, rng.uniform(0.5, 15.0), 17)
            kps[k, :, 2] = 0.9
            scores[k] = rng.uniform(0.05, 0.99)
        preds[img] = D.Detections(np.tile([50.0, 50.0, 30.0, 30.0], (n_det, 1)),
                                  scores, kps)
    return preds, gts


def oracle_ap50(preds_by_image, gts_by_image, sigmas):
    """AP@0.50 via exhaustive assignment enumeration (score-priority
    lexicographic optimum) and direct interpolated precision."""
    t = 0.5
    scores, flags = [], []
    n_gt = 0
    for img in sorted(set(preds_by_image) | set(gts_by_image)):
        dets = preds_by_image.get(img)
        ranked = sorted(range(len(dets)) if dets else (),
                        key=lambda d: -dets.scores[d])[:20]
        gts = [g for g in gts_by_image.get(img, []) if np.any(g.visible)]
        n_gt += len(gts)
        matrix = np.array([[D.oks(dets.keypoints[d], [g], sigmas)[0] for g in gts]
                           for d in ranked]).reshape(len(ranked), len(gts))
        best_key, best_flags = None, [0] * len(ranked)
        for r in range(min(len(ranked), len(gts)), -1, -1):
            for det_subset in itertools.combinations(range(len(ranked)), r):
                for perm in itertools.permutations(range(len(gts)), r):
                    vals = [-1.0] * len(ranked)
                    valid = True
                    for d_i, g_i in zip(det_subset, perm):
                        if matrix[d_i, g_i] >= t:
                            vals[d_i] = matrix[d_i, g_i]
                        else:
                            valid = False
                            break
                    if valid and (best_key is None or tuple(vals) > best_key):
                        best_key = tuple(vals)
                        best_flags = [1 if v >= 0 else 0 for v in vals]
        scores.extend(float(dets.scores[d]) for d in ranked)
        flags.extend(best_flags)
    if n_gt == 0 or not scores:
        return 0.0
    order = np.argsort(-np.asarray(scores), kind="stable")
    matched = np.asarray(flags)[order]
    tp = np.cumsum(matched == 1)
    fp = np.cumsum(matched == 0)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1)
    interp = []
    for r in np.linspace(0, 1, 101):
        candidates = precision[recall >= r]
        interp.append(candidates.max() if candidates.size else 0.0)
    return float(np.mean(interp))


def check_oks_ap_oracle():
    t0 = time.time()
    kps = np.zeros((17, 3))
    kps[0] = (10.0, 10.0, 2)
    gt = D.GroundTruthInstance(keypoints=kps, area=400.0)
    if abs(D.oks(kps, [gt])[0] - 1.0) > 1e-9:
        return CheckResult("oks-ap-oracle", False, "exact prediction != 1.0")
    h0 = D.DEFAULT_FALLOFF[0]
    pred = kps.copy()
    pred[0, 0] += math.sqrt(2.0 * 400.0 * h0 * h0)
    if abs(D.oks(pred, [gt])[0] - math.exp(-1.0)) > 1e-9:
        return CheckResult("oks-ap-oracle", False, "e^-1 closed form violated")
    rng = np.random.default_rng(2024)
    sigmas = D.KeypointSigmas()
    for case in range(25):
        preds, gts = _random_tiny_case(rng)
        got = D.evaluate(preds, gts, sigmas)["AP50"]
        want = oracle_ap50(preds, gts, sigmas)
        if got != want:
            return CheckResult("oks-ap-oracle", False,
                               f"case {case}: AP50 {got} != oracle {want}")
    dt = time.time() - t0
    return CheckResult("oks-ap-oracle", dt < 30,
                       f"closed forms exact, 25 oracle cases agree, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 7. decode round trip
# ---------------------------------------------------------------------------

def check_decode_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(77)
    anchors = ((19, 27), (44, 40), (38, 94))
    worst = 0.0
    for idx in range(1000):
        stride = (8, 16, 32, 64)[idx % 4]
        grid = int(rng.integers(3, 8))
        i, j = int(rng.integers(0, grid)), int(rng.integers(0, grid))
        a_idx = int(rng.integers(0, 3))
        anchor = anchors[a_idx]
        fx, fy = rng.uniform(0.03, 0.97, 2)
        fw, fh = rng.uniform(0.05, 0.95, 2)
        bx = (2 * fx - 0.5 + j) * stride
        by = (2 * fy - 0.5 + i) * stride
        bw = (2 * fw) ** 2 * anchor[0]
        bh = (2 * fh) ** 2 * anchor[1]
        kf = rng.uniform(0.03, 0.97, (17, 2))
        kx = ((2 * kf[:, 0] - 0.5) * 4 - 1.5 + j) * stride
        ky = ((2 * kf[:, 1] - 0.5) * 4 - 1.5 + i) * stride
        kps = np.stack([kx, ky, np.full(17, 0.7)], axis=1)
        logits = D.encode((bx, by, bw, bh), kps, stride, anchor, (i, j))
        head = np.zeros((1, 171, grid, grid))
        head[0, 4::57] = -30.0
        head[0, a_idx * 57:(a_idx + 1) * 57, i, j] = logits
        dets = D.decode(head, stride, anchors, conf_threshold=0.5)
        if len(dets) != 1:
            return CheckResult("decode-round-trip", False,
                               f"target {idx}: {len(dets)} detections")
        err = max(np.max(np.abs(dets.boxes[0] - (bx, by, bw, bh))),
                  np.max(np.abs(dets.keypoints[0, :, :2] - kps[:, :2])))
        worst = max(worst, float(err))
        if err > 1e-5:
            return CheckResult("decode-round-trip", False,
                               f"target {idx}: error {err:.2e} px")
    dt = time.time() - t0
    return CheckResult("decode-round-trip", dt < 10,
                       f"1000 targets, worst error {worst:.2e} px, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 8. determinism and serialization
# ---------------------------------------------------------------------------

def check_determinism_serialization(quick=False):
    t0 = time.time()
    cfg = ModelConfig(variant="s")
    a = build_model(cfg, seed=0)
    b = build_model(ModelConfig(variant="s"), seed=0)
    for (n1, p1), (n2, p2) in zip(a.named_parameters(), b.named_parameters()):
        if n1 != n2 or p1.value.numpy().tobytes() != p2.value.numpy().tobytes():
            return CheckResult("determinism-serialization", False,
                               f"same-seed builds differ at {n1}")
    size = 192 if quick else 960
    rng = np.random.default_rng(5)
    x = tensor(rng.uniform(0, 1, size=(1, 3, size, size)).astype(np.float32))
    fwd0 = time.time()
    try:
        # raise on any intermediate overflow/invalid, not just at the heads
        with np.errstate(over="raise", invalid="raise"):
            outs = [o.numpy() for o in a(x)]
    except FloatingPointError as exc:
        return CheckResult("determinism-serialization", False,
                           f"numeric fault in forward at {size}: {exc}")
    fwd = time.time() - fwd0
    if any(not np.all(np.isfinite(o)) for o in outs):
        return CheckResult("determinism-serialization", False,
                           f"NaN/Inf in forward at {size}")
    fd, path = tempfile.mkstemp(suffix=".drsi")
    os.close(fd)
    try:
        save_weights(a, path)
        other = build_model(ModelConfig(variant="s"), seed=12345)
        load_weights(other, path)
        outs2 = [o.numpy() for o in other(x)]
    finally:
        os.unlink(path)
    if any(o1.tobytes() != o2.tobytes() for o1, o2 in zip(outs, outs2)):
        return CheckResult("determinism-serialization", False,
                           "forward differs after save/load round trip")
    dt = time.time() - t0
    if fwd >= 600:
        return CheckResult("determinism-serialization", False,
                           f"forward at {size} took {fwd:.0f}s (>= 600s)")
    return CheckResult(
        "determinism-serialization", True,
        f"bit-identical builds; forward@{size} {fwd:.1f}s finite; "
        f"reload reproduces it bitwise ({dt:.1f}s total)")


# ---------------------------------------------------------------------------
# 9. ablation plumbing
# ---------------------------------------------------------------------------

def check_ablation_plumbing():
    base = ModelConfig(variant="s").to_dict()
    marker_shapes = {}
    for neck in ("pan", "cbam_pan", "asi_pan"):
        for residual in (True, False):
            data = dict(base)
            data["neck"] = neck
            data["residual_interactions"] = residual
            cfg = ModelConfig.from_dict(data)
            report = profile(cfg, 640)
            marks = tuple((r.name, r.shape) for r in report.rows
                          if r.name.split(".")[-1][0] in "PN"
                          and r.name.split(".")[-1][1:].isdigit()
                          or r.name.startswith("heads."))
            marker_shapes[(neck, residual)] = marks
    combos = list(marker_shapes.values())
    if any(m != combos[0] for m in combos[1:]):
        return CheckResult("ablation-plumbing", False,
                           "inter-module shapes differ across config toggles")
    return CheckResult("ablation-plumbing", True,
                       f"{len(combos)} neck/block combinations share "
                       f"{len(combos[0])} inter-module shapes")


ALL_CHECKS = [
    check_channel_scheme,
    check_reduction_oracle,
    check_gradient_suite,
    check_complexity_scaling,
    check_parameter_bands,
    check_oks_ap_oracle,
    check_decode_round_trip,
    check_determinism_serialization,
    check_ablation_plumbing,
]


def run_selftest(quick=False):
    results = []
    for fn in ALL_CHECKS:
        if fn is check_determinism_serialization:
            results.append(fn(quick=quick))
        else:
            results.append(fn())
    return results
