"""Anchor decoding round trips, NMS, keypoint similarity and the AP/AR
protocol against an exhaustive-matching oracle; the array path against the
per-object decode, NMS, writer and per-threshold matcher it replaced."""

import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from drsinet import decode as decode_module
from drsinet.decode import (
    DEFAULT_FALLOFF, Detections, FormatError, GroundTruthInstance,
    KeypointSigmas, LARGE_AREA, OKS_THRESHOLDS, box_iou, decode, encode,
    evaluate, nms, oks, read_ground_truth, read_results, write_results,
)
from drsinet.network import ModelConfig, build_model
from drsinet.tensor import DomainError, ShapeError, tensor

ANCHORS = ((19, 27), (44, 40), (38, 94))
ROOT = Path(__file__).resolve().parent.parent


def single_target_head(logits, anchor_idx, cell, grid, num_keypoints=17):
    """Head tensor with one encoded target; objectness elsewhere is -30."""
    fields = 5 + 1 + 3 * num_keypoints
    head = np.zeros((1, 3 * fields, grid, grid), dtype=np.float64)
    head[0, 4::fields] = -30.0
    i, j = cell
    base = anchor_idx * fields
    head[0, base:base + fields, i, j] = logits
    return head


@dataclass
class BoxedGt(GroundTruthInstance):
    """A ground truth with the x, y, w, h box it was drawn in, where the
    tests place its detections."""

    bbox: tuple = (0.0, 0.0, 0.0, 0.0)


def make_gt(rng, num_keypoints=17, center=(50.0, 50.0), spread=20.0,
            area=400.0, all_visible=False):
    kps = np.zeros((num_keypoints, 3))
    kps[:, 0] = center[0] + rng.uniform(-spread, spread, num_keypoints)
    kps[:, 1] = center[1] + rng.uniform(-spread, spread, num_keypoints)
    kps[:, 2] = 2 if all_visible else rng.integers(0, 3, num_keypoints)
    if not np.any(kps[:, 2] > 0):
        kps[0, 2] = 2
    return BoxedGt(keypoints=kps, area=area,
                   bbox=(center[0] - spread, center[1] - spread,
                         2 * spread, 2 * spread))


def one(box, score, keypoints):
    """A one-row Detections."""
    return Detections([box], [score], [keypoints])


def perturbed_detection(rng, gt, noise, score):
    kps = gt.keypoints.copy()
    kps[:, 0] += rng.normal(0, noise, kps.shape[0])
    kps[:, 1] += rng.normal(0, noise, kps.shape[0])
    kps[:, 2] = 0.9
    x, y, w, h = gt.bbox
    return one((x + w / 2, y + h / 2, w, h), score, kps)


def boxes_only(boxes, scores):
    boxes = np.asarray(boxes, dtype=np.float64)
    return Detections(boxes, scores, np.full((len(boxes), 17, 3), 0.5))


# ---------------------------------------------------------------------------
# the per-object decode, NMS and writer the array path replaced: oracles
# ---------------------------------------------------------------------------

@dataclass
class OldDetection:
    box: tuple
    objectness: float
    class_score: float
    keypoints: np.ndarray

    @property
    def score(self):
        return self.objectness * self.class_score

    @property
    def area(self):
        return self.box[2] * self.box[3]


def old_decode(head, stride, anchors, conf_threshold, num_keypoints=17):
    data = head.numpy() if hasattr(head, "numpy") else np.asarray(head)
    fields = 5 + 1 + 3 * num_keypoints
    n_anchor = len(anchors)
    _, _, h, w = data.shape
    t = data.reshape(n_anchor, fields, h, w).astype(np.float64)
    jj = np.arange(w).reshape(1, 1, w)
    ii = np.arange(h).reshape(1, h, 1)
    s = float(stride)
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-t))
    obj = sig[:, 4]
    cls = sig[:, 5]
    keep = obj * cls >= conf_threshold
    aw = np.array([a[0] for a in anchors], dtype=np.float64).reshape(-1, 1, 1)
    ah = np.array([a[1] for a in anchors], dtype=np.float64).reshape(-1, 1, 1)
    bx = (2.0 * sig[:, 0] - 0.5 + jj) * s
    by = (2.0 * sig[:, 1] - 0.5 + ii) * s
    bw = (2.0 * sig[:, 2]) ** 2 * aw
    bh = (2.0 * sig[:, 3]) ** 2 * ah
    kx = ((2.0 * sig[:, 6::3] - 0.5) * 4.0 - 1.5 + jj) * s
    ky = ((2.0 * sig[:, 7::3] - 0.5) * 4.0 - 1.5 + ii) * s
    kc = sig[:, 8::3]
    dets = []
    for a, i, j in zip(*np.nonzero(keep)):
        kps = np.stack([kx[a, :, i, j], ky[a, :, i, j], kc[a, :, i, j]], axis=1)
        dets.append(OldDetection(
            box=(float(bx[a, i, j]), float(by[a, i, j]),
                 float(bw[a, i, j]), float(bh[a, i, j])),
            objectness=float(obj[a, i, j]), class_score=float(cls[a, i, j]),
            keypoints=kps))
    return dets


def old_box_iou(a, b):
    def corners(box):
        cx, cy, w, h = box
        return cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0
    ax1, ay1, ax2, ay2 = corners(a)
    bx1, by1, bx2, by2 = corners(b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def old_nms(dets, iou_threshold):
    order = sorted(range(len(dets)), key=lambda k: -dets[k].score)
    kept = []
    for k in order:
        if all(old_box_iou(dets[k].box, dets[j].box) <= iou_threshold for j in kept):
            kept.append(k)
    return [dets[k] for k in sorted(kept)]


def old_write_results(dets_by_image, path, category_id=1):
    items = []
    for image_id in sorted(dets_by_image):
        for det in dets_by_image[image_id]:
            cx, cy, w, h = det.box
            items.append({
                "image_id": int(image_id),
                "category_id": int(category_id),
                "bbox": [cx - w / 2.0, cy - h / 2.0, w, h],
                "score": det.score,
                "area": det.area,
                "keypoints": [float(v) for v in det.keypoints.reshape(-1)],
            })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(items, fh)


def old_read_results(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise FormatError(f"{path}: results must be a JSON array")
    rows = {}
    for n, item in enumerate(data):
        try:
            kps = np.asarray(item["keypoints"], dtype=np.float64).reshape(-1, 3)
            score = float(item["score"])
            if not (np.isfinite(score) and np.isfinite(kps).all()):
                raise ValueError("score and keypoints must be finite")
            if "bbox" in item:
                x, y, w, h = (float(v) for v in item["bbox"])
                if not np.isfinite([x, y, w, h]).all():
                    raise ValueError("bbox must be finite")
            else:
                x, y = kps[:, 0].min(), kps[:, 1].min()
                w = max(float(kps[:, 0].max() - x), 1.0)
                h = max(float(kps[:, 1].max() - y), 1.0)
            image_id = int(item["image_id"])
            if isinstance(item["image_id"], bool):    # image ids are JSON integers
                raise ValueError("image_id must be an integer")
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"results entry {n}: {exc}") from None
        boxes, scores, keypoints = rows.setdefault(image_id, ([], [], []))
        boxes.append((x + w / 2.0, y + h / 2.0, w, h))
        scores.append(score)
        keypoints.append(kps)
    out = {}
    for image_id, (boxes, scores, keypoints) in rows.items():
        if len({k.shape for k in keypoints}) > 1:
            raise FormatError(f"results for image {image_id}: entries disagree "
                              "on the keypoint count")
        out[image_id] = Detections(boxes, scores, keypoints)
    return out


def random_results(rng):
    """A results array of up to 7 entries over 3 images, each field often
    missing, mistyped, non-finite, nested or of the wrong length."""
    def pick(options):
        return options[int(rng.integers(len(options)))]

    def number():
        return pick([1.5, 2, -3.25, 0.0, 7, 1e300])

    def junk():
        return pick(["a", "1.5", None, [1], {}, float("nan"), float("inf"), True])

    def keypoints(k):
        u = rng.random()
        if u < 0.7:
            flat = [number() for _ in range(3 * k)]
            if flat and rng.random() < 0.1:
                flat[int(rng.integers(len(flat)))] = junk()
            return flat
        if u < 0.8:
            return [[number(), number(), number()] for _ in range(k)]
        if u < 0.9:
            return [number() for _ in range(3 * k + pick([1, 2]))]
        return pick([[], 5, "abc", None, {"a": 1}, "123", [[1, 2], [3]]])

    def entry(k):
        if rng.random() < 0.01:
            return pick([[1, 0.5], "x", 5, None])
        item = {}
        if rng.random() < 0.97:
            item["keypoints"] = keypoints(k if rng.random() < 0.9 else pick([0, 1, 17]))
        if rng.random() < 0.97:
            item["score"] = number() if rng.random() < 0.95 else junk()
        if rng.random() < 0.96:
            item["image_id"] = pick([1, 2, 3]) if rng.random() < 0.95 else junk()
        if rng.random() < 0.5:
            item["bbox"] = ([pick([1.0, 2.0, 0.5, 3]) for _ in range(4)]
                            if rng.random() < 0.9 else
                            pick([5, [1, 2, 3], [1, float("inf"), 2, 3], "1234",
                                  [1, 2, 0, 3], {"a": 1}]))
        return item

    k = pick([0, 1, 2, 17])
    return [entry(k) for _ in range(int(rng.integers(0, 8)))]


def old_oks(pred, gt, falloff=DEFAULT_FALLOFF):
    """OKS of predictions (..., K, 3) against one instance as the package
    computed it before its per-image table: a (..., n_visible) mean."""
    d2 = ((pred[..., 0] - gt.keypoints[:, 0]) ** 2
          + (pred[..., 1] - gt.keypoints[:, 1]) ** 2)
    terms = np.exp(-d2 / (2.0 * float(gt.area) * falloff ** 2))
    out = terms[..., gt.visible].mean(axis=-1)
    return float(out) if out.ndim == 0 else out


def old_objects(dets):
    return [OldDetection(tuple(b), float(s), 1.0, k)
            for b, s, k in zip(dets.boxes.tolist(), dets.scores, dets.keypoints)]


def old_greedy_match(oks_rows, threshold, gt_ignore):
    n_gt = len(gt_ignore)
    flags = np.zeros(len(oks_rows), dtype=np.int8)
    taken = [False] * n_gt
    order = sorted(range(n_gt), key=lambda g: gt_ignore[g])  # counted first
    for d, row in enumerate(oks_rows):
        best, best_oks = -1, threshold
        for g in order:
            if taken[g]:
                continue
            if best >= 0 and not gt_ignore[best] and gt_ignore[g]:
                break  # a counted match is already in hand
            if row[g] >= best_oks:
                best, best_oks = g, row[g]
        if best >= 0:
            taken[best] = True
            flags[d] = -1 if gt_ignore[best] else 1
    return flags


def old_score_images(preds_by_image, gts_by_image, sigmas, max_dets):
    tables = []
    for img in sorted(set(preds_by_image) | set(gts_by_image)):
        dets = preds_by_image.get(img)
        gts = [g for g in gts_by_image.get(img, []) if np.any(g.visible)]
        if dets is None or not len(dets):
            tables.append((np.zeros(0), np.zeros(0), [g.area for g in gts],
                           np.zeros((0, len(gts)))))
            continue
        dets = dets[np.argsort(-dets.scores, kind="stable")[:max_dets]]
        matrix = np.empty((len(dets), len(gts)), dtype=np.float64)
        for g_idx, g in enumerate(gts):
            matrix[:, g_idx] = old_oks(dets.keypoints, g, sigmas.falloff)
        tables.append((dets.scores, dets.area, [g.area for g in gts], matrix))
    return tables


def old_evaluate_pass(tables, area_range=None):
    """AP and recall per threshold, and the matcher's flags of every
    (threshold, image) pair, threshold-major."""
    per_image = []
    n_gt = 0
    for _, det_area, gt_area, matrix in tables:
        if area_range is None:
            ignore = [False] * len(gt_area)
            det_out = np.zeros(len(det_area), dtype=bool)
        else:
            lo, hi = area_range
            ignore = [not (lo < a <= hi) for a in gt_area]
            det_out = ~((lo < det_area) & (det_area <= hi))
        n_gt += ignore.count(False)
        per_image.append((matrix.tolist(), ignore, det_out))
    scores = np.concatenate([t[0] for t in tables] + [np.zeros(0)])
    order = np.argsort(-scores, kind="stable")

    ap, rec, per_threshold = [], [], []
    for t in OKS_THRESHOLDS:
        flags = [np.zeros(0, dtype=np.int8)]
        for rows, ignore, det_out in per_image:
            f = old_greedy_match(rows, t, ignore)
            per_threshold.append(f.copy())
            f[(f == 0) & det_out] = -1  # unmatched out-of-range detection
            flags.append(f)
        flags_arr = np.concatenate(flags)[order]
        ap.append(decode_module._average_precision(flags_arr, n_gt))
        rec.append(float(np.sum(flags_arr == 1)) / n_gt if n_gt else 0.0)
    return np.asarray(ap), np.asarray(rec), per_threshold


def old_evaluate(preds_by_image, gts_by_image, sigmas=None, max_dets=20):
    sigmas = sigmas or KeypointSigmas()
    tables = old_score_images(preds_by_image, gts_by_image, sigmas, max_dets)
    ap, recall, _ = old_evaluate_pass(tables)
    ap_large, _, _ = old_evaluate_pass(tables, area_range=(LARGE_AREA, float("inf")))
    return {"AP": float(ap.mean()), "AP50": float(ap[0]), "AP75": float(ap[5]),
            "APL": float(ap_large.mean()), "AR": float(recall.mean())}


class TestDetections:
    def test_checks(self):
        kps = np.full((2, 17, 3), 0.5)
        with pytest.raises(ShapeError):
            Detections(np.ones((2, 4)), np.ones(2), np.ones((2, 17)))
        with pytest.raises(ShapeError):
            Detections(np.ones((3, 4)), np.ones(2), kps)
        with pytest.raises(ShapeError):
            Detections(np.ones((2, 4)), np.ones(3), kps)
        with pytest.raises(DomainError):
            Detections([[1, 1, 2, 2], [1, 1, 0, 2]], np.ones(2), kps)
        with pytest.raises(DomainError):
            Detections([[1, 1, 2, -2], [1, 1, 2, 2]], np.ones(2), kps)

    def test_select_and_concatenate(self, rng):
        a = boxes_only(rng.uniform(1, 9, (4, 4)), rng.uniform(0, 1, 4))
        b = boxes_only(rng.uniform(1, 9, (2, 4)), rng.uniform(0, 1, 2))
        both = Detections.concatenate([a, b])
        assert len(both) == 6 and both.keypoints.shape == (6, 17, 3)
        np.testing.assert_array_equal(both.scores, np.r_[a.scores, b.scores])
        picked = both[np.array([5, 0])]
        np.testing.assert_array_equal(picked.boxes, np.stack([b.boxes[1], a.boxes[0]]))
        assert len(both[np.zeros(0, dtype=np.intp)]) == 0
        np.testing.assert_array_equal(both.area, both.boxes[:, 2] * both.boxes[:, 3])


class TestDecode:
    def test_all_zero_logits_cell_origin(self):
        head = single_target_head(np.zeros(57), 0, (0, 0), grid=4)
        dets = decode(head, stride=8, anchors=ANCHORS, conf_threshold=0.2)
        assert len(dets) == 1
        box = dets.boxes[0]
        assert box[0] == pytest.approx(4.0, abs=1e-9)
        assert box[1] == pytest.approx(4.0, abs=1e-9)
        assert box[2] == pytest.approx(ANCHORS[0][0], abs=1e-9)
        assert box[3] == pytest.approx(ANCHORS[0][1], abs=1e-9)
        assert dets.scores[0] == pytest.approx(0.25)   # objectness 0.5 x class 0.5
        np.testing.assert_allclose(dets.keypoints[0, :, 0], 4.0, atol=1e-9)
        np.testing.assert_allclose(dets.keypoints[0, :, 1], 4.0, atol=1e-9)
        np.testing.assert_allclose(dets.keypoints[0, :, 2], 0.5, atol=1e-9)

    def test_threshold_one_empty(self, rng):
        head = rng.normal(size=(1, 171, 4, 4)).astype(np.float32)
        dets = decode(head, 8, ANCHORS, conf_threshold=1.0)
        assert len(dets) == 0
        assert dets.boxes.shape == (0, 4) and dets.keypoints.shape == (0, 17, 3)

    @pytest.mark.parametrize("stride", [8, 16, 32, 64])
    def test_encode_decode_round_trip(self, stride, rng):
        for _ in range(250):
            grid = int(rng.integers(3, 8))
            i, j = int(rng.integers(0, grid)), int(rng.integers(0, grid))
            a_idx = int(rng.integers(0, 3))
            anchor = ANCHORS[a_idx]
            s = stride
            fx, fy = rng.uniform(0.03, 0.97, 2)
            bx = (2 * fx - 0.5 + j) * s
            by = (2 * fy - 0.5 + i) * s
            fw, fh = rng.uniform(0.05, 0.95, 2)
            bw = (2 * fw) ** 2 * anchor[0]
            bh = (2 * fh) ** 2 * anchor[1]
            kf = rng.uniform(0.03, 0.97, (17, 2))
            kx = ((2 * kf[:, 0] - 0.5) * 4 - 1.5 + j) * s
            ky = ((2 * kf[:, 1] - 0.5) * 4 - 1.5 + i) * s
            kps = np.stack([kx, ky, np.full(17, 0.7)], axis=1)
            logits = encode((bx, by, bw, bh), kps, s, anchor, (i, j))
            dets = decode(single_target_head(logits, a_idx, (i, j), grid),
                          s, ANCHORS, conf_threshold=0.5)
            assert len(dets) == 1
            np.testing.assert_allclose(dets.boxes[0], (bx, by, bw, bh), atol=1e-5)
            np.testing.assert_allclose(dets.keypoints[0, :, :2], kps[:, :2], atol=1e-5)
            assert dets.scores[0] == pytest.approx(0.81)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extreme_logits_saturate(self, dtype):
        """Logits of +-1e4 and +-800, past where exp overflows, decode to the
        exact limits 0 and 1 with no overflow warning (the suite turns a
        RuntimeWarning into an error)."""
        logits = np.resize([1e4, -800.0, 800.0, -1e4], 57)
        logits[2:6] = (800.0, 1e4, 1e4, 800.0)     # box sides must stay > 0
        head = np.full((1, 3 * 57, 3, 3), -800.0, dtype)
        head[0, 4::57, 0] = -1e4
        head[0, 2::57] = head[0, 3::57] = 1e4
        head[0, 57:114, 2, 1] = logits
        scores = decode(head, 8, ANCHORS, conf_threshold=0.0).scores
        assert sorted(scores.tolist()) == [0.0] * 26 + [1.0]
        dets = decode(head, 8, ANCHORS, conf_threshold=0.5)
        sig = (logits > 0).astype(np.float64)
        np.testing.assert_array_equal(dets.boxes, [[20.0, 12.0, 176.0, 160.0]])
        np.testing.assert_array_equal(dets.scores, [1.0])
        np.testing.assert_array_equal(dets.keypoints[0], np.stack([
            ((2.0 * sig[6::3] - 0.5) * 4.0 - 0.5) * 8.0,
            ((2.0 * sig[7::3] - 0.5) * 4.0 + 0.5) * 8.0,
            sig[8::3]], axis=1))

    @pytest.mark.parametrize("side", [2, 3])
    def test_underflowed_side_dropped(self, side):
        """A width (or height) logit of -800 at a passing cell makes
        (2 sig)^2 underflow to 0: that candidate is dropped, the others come
        back unchanged, with no DomainError and no RuntimeWarning."""
        head = np.zeros((1, 3 * 57, 3, 3))
        head[0, 4::57] = head[0, 5::57] = 5.0       # every cell passes
        head[0, 57 + side, 1, 2] = -800.0            # anchor 1, cell (1, 2)
        dets = decode(head, 8, ANCHORS, conf_threshold=0.5)
        without = head.copy()
        without[0, 57 + 4, 1, 2] = -30.0             # that cell fails instead
        want = decode(without, 8, ANCHORS, conf_threshold=0.5)
        assert len(dets) == len(want) == 26
        np.testing.assert_array_equal(dets.boxes, want.boxes)
        np.testing.assert_array_equal(dets.scores, want.scores)
        np.testing.assert_array_equal(dets.keypoints, want.keypoints)

    def test_keypoint_count_read_from_channels(self):
        logits = encode((12.0, 12.0, 19.0, 27.0), np.full((5, 3), [12.0, 12.0, 0.7]),
                        8, ANCHORS[0], (1, 1))
        head = single_target_head(logits, 0, (1, 1), 3, num_keypoints=5)
        assert head.shape[1] == 3 * (6 + 3 * 5) == 63
        dets = decode(head, 8, ANCHORS, 0.5)
        assert dets.keypoints.shape == (1, 5, 3)
        np.testing.assert_allclose(dets.keypoints[0, :, :2], 12.0, atol=1e-9)

    @pytest.mark.parametrize("channels, anchors", [
        (170, ANCHORS), (3 * 6, ANCHORS), (3 * 8, ANCHORS), (0, ANCHORS), (57, ())])
    def test_channels_not_a_keypoint_layout(self, channels, anchors):
        with pytest.raises(ShapeError):
            decode(np.zeros((1, channels, 2, 2)), 8, anchors, 0.25)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_head_refused(self, value):
        head = np.zeros((1, 3 * 57, 4, 4), np.float32)
        head[0, 100, 2, 3] = value
        with pytest.raises(DomainError) as info:
            decode(head, 16, ANCHORS, 0.25)
        assert str(info.value) == "non-finite values in the heads at stride 16"

    @pytest.mark.parametrize("conf", [1.5, -0.5])
    def test_threshold_outside_unit_interval_refused(self, conf):
        with pytest.raises(DomainError, match="conf_threshold must be in"):
            decode(np.zeros((1, 3 * 57, 8, 8), np.float32), 8, ANCHORS, conf)

    def test_encode_rejects_out_of_range(self):
        kps = np.full((17, 3), 0.5)
        with pytest.raises(DomainError):
            encode((1000.0, 4.0, 19.0, 27.0), kps, 8, ANCHORS[0], (0, 0))

    def test_matches_per_object_decode(self, rng):
        head = rng.normal(0, 2, size=(1, 171, 6, 5)).astype(np.float32)
        new = decode(head, 16, ANCHORS, 0.3)
        old = old_decode(head, 16, ANCHORS, 0.3)
        assert len(new) == len(old) > 0
        np.testing.assert_array_equal(new.boxes, [d.box for d in old])
        np.testing.assert_array_equal(new.scores, [d.score for d in old])
        np.testing.assert_array_equal(new.keypoints, [d.keypoints for d in old])


class TestNms:
    def test_identical_boxes_one_survivor(self):
        kept = nms(boxes_only([(10, 10, 4, 4)] * 2, [0.8, 0.9]), 0.5)
        assert len(kept) == 1 and kept.scores[0] == 0.9

    def test_tie_keeps_first(self):
        dets = boxes_only([(10, 10, 4, 4)] * 2, [0.9, 0.9])
        dets.keypoints[1] = 0.25
        kept = nms(dets, 0.5)
        assert len(kept) == 1
        np.testing.assert_array_equal(kept.keypoints[0], dets.keypoints[0])

    def test_disjoint_all_kept(self):
        dets = boxes_only([(10 + 20 * k, 10, 4, 4) for k in range(3)],
                          [0.5 + 0.1 * k for k in range(3)])
        assert len(nms(dets, 0.5)) == 3

    def test_iou_boundary_case(self):
        # corner boxes (0,0)-(2,2) and (1,1)-(3,3): intersection 1, union 7
        dets = boxes_only([(1, 1, 2, 2), (2, 2, 2, 2)], [0.9, 0.8])
        assert box_iou(dets.boxes[0], dets.boxes[1]) == pytest.approx(1.0 / 7.0, abs=1e-12)
        assert len(nms(dets, 0.5)) == 2
        assert len(nms(dets, 0.1)) == 1

    def test_invalid_threshold(self):
        with pytest.raises(DomainError):
            nms(boxes_only(np.zeros((0, 4)), []), 0.0)

    def test_empty(self):
        assert len(nms(boxes_only(np.zeros((0, 4)), []), 0.5)) == 0

    def test_subset_pairwise_idempotent(self, rng):
        dets = boxes_only(np.column_stack([rng.uniform(0, 40, (25, 2)),
                                           rng.uniform(2, 10, (25, 2))]),
                          rng.uniform(0.1, 0.99, 25))
        kept = nms(dets, 0.4)
        rows = {tuple(b) for b in dets.boxes.tolist()}
        assert all(tuple(b) in rows for b in kept.boxes.tolist())
        iou = box_iou(kept.boxes[:, None], kept.boxes[None, :])
        assert np.all(iou[~np.eye(len(kept), dtype=bool)] <= 0.4)
        again = nms(kept, 0.4)
        np.testing.assert_array_equal(again.boxes, kept.boxes)

    def test_boxes_without_extent_overlap_nothing(self):
        """Sides far below the resolution of their centres give corners of
        no extent: no union, IoU 0 as in the per-object form, and no
        'invalid value' warning."""
        boxes = [(5.0, 5.0, 1e-30, 1e-30), (5.0, 5.0, 1e-40, 2.0), (5.0, 5.0, 2.0, 2.0)]
        got = box_iou(np.array(boxes)[:, None], np.array(boxes)[None, :])
        want = [[old_box_iou(p, q) for q in boxes] for p in boxes]
        np.testing.assert_array_equal(got, want)
        assert len(nms(boxes_only(boxes, [0.9, 0.8, 0.7]), 0.5)) == 3

    def test_box_iou_pairwise_matches_scalar(self, rng):
        a = np.column_stack([rng.integers(0, 12, (30, 2)), rng.integers(1, 8, (30, 2))])
        b = np.column_stack([rng.integers(0, 12, (20, 2)), rng.integers(1, 8, (20, 2))])
        got = box_iou(a[:, None], b[None, :])
        assert got.shape == (30, 20)
        want = [[old_box_iou(tuple(p), tuple(q)) for q in b.tolist()] for p in a.tolist()]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("iou", [0.3, 0.5, 0.65])
    def test_matches_per_object_nms(self, seed, iou):
        rng = np.random.default_rng(seed)
        self.check_per_object_nms(rng, int(rng.integers(1, 200)), iou)

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
    def test_matches_per_object_nms_at_block_edges(self, blocks, extra):
        """1, B - 1, B, B + 1 and 2B + 1 boxes for B score-sorted rows per
        box_iou block."""
        n = blocks * decode_module._NMS_BLOCK_ROWS + extra
        for seed in range(4):
            for iou in (0.3, 0.65):
                self.check_per_object_nms(np.random.default_rng(seed), n, iou)

    @staticmethod
    def check_per_object_nms(rng, n, iou):
        # integer-grid boxes and coarse scores: many duplicate boxes and
        # exact score ties
        boxes = np.column_stack([rng.integers(0, 30, (n, 2)),
                                 rng.integers(1, 10, (n, 2))]).astype(np.float64)
        dets = boxes_only(boxes, rng.integers(1, 8, n) / 8.0)
        dets.keypoints[:, 0, 0] = np.arange(n)      # row tag
        objs = old_objects(dets)
        kept = {id(d) for d in old_nms(objs, iou)}
        want = [k for k, d in enumerate(objs) if id(d) in kept]
        assert nms(dets, iou).keypoints[:, 0, 0].tolist() == want


class TestForwardJson:
    @pytest.mark.parametrize("size", [128, 192])
    def test_byte_identical_to_per_object_path(self, size, tmp_path):
        cfg = ModelConfig.from_file(ROOT / "configs" / "mini.json")
        model = build_model(cfg, seed=0)
        frame = np.random.default_rng(size).standard_normal((1, 3, size, size))
        heads = model(tensor(frame.astype(np.float32)))
        levels = list(zip(heads, cfg.strides, cfg.anchors))
        old = []
        for head, stride, anchors in levels:
            old.extend(old_decode(head, stride, anchors, 0.25))
        old_write_results({3: old_nms(old, 0.65)}, tmp_path / "old.json")
        new = Detections.concatenate([decode(head, stride, anchors, 0.25)
                                      for head, stride, anchors in levels])
        kept = nms(new, 0.65)
        write_results({3: kept}, tmp_path / "new.json")
        assert len(new) == len(old) and 0 < len(kept) < len(new)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    def test_images_without_detections(self, tmp_path):
        head = np.full((1, 3 * 57, 4, 4), -20.0)
        empty = decode(head, 8, [(10, 13), (16, 30), (33, 23)], 0.25)
        assert len(empty) == 0
        old_write_results({1: []}, tmp_path / "old.json")
        write_results({1: empty}, tmp_path / "new.json")
        assert (tmp_path / "new.json").read_bytes() == b"[]"
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        rng = np.random.default_rng(5)
        dets = perturbed_detection(rng, make_gt(rng), 1.0, 0.7)
        old_write_results({1: [], 2: old_objects(dets), 3: []}, tmp_path / "old.json")
        write_results({1: empty, 2: dets, 3: empty}, tmp_path / "new.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_blocked_write_is_one_dumps(self, rows, tmp_path, monkeypatch):
        """Rows encoded three at a time, across images of 0, 1 and ``rows``
        rows, give the bytes of one ``json.dumps`` of the whole array."""
        monkeypatch.setattr(decode_module, "_WRITE_BLOCK_ROWS", 3)
        rng = np.random.default_rng(rows)
        pool = Detections.concatenate([perturbed_detection(rng, make_gt(rng), 1.0, 0.5)
                                       for _ in range(8)])
        dets = {4: pool[:rows], 2: pool[7:], 9: pool[:0]}
        items = [{"image_id": image_id, "category_id": 1,
                  "bbox": [cx - w / 2.0, cy - h / 2.0, w, h], "score": s, "area": w * h,
                  "keypoints": k}
                 for image_id in sorted(dets)
                 for (cx, cy, w, h), s, k in zip(dets[image_id].boxes.tolist(),
                                                 dets[image_id].scores.tolist(),
                                                 dets[image_id].keypoints.reshape(-1, 51).tolist())]
        write_results(dets, tmp_path / "new.json")
        assert len(items) == rows + 1
        assert (tmp_path / "new.json").read_text(encoding="utf-8") == json.dumps(items)


class TestOks:
    def test_perfect_prediction(self, rng):
        gt = make_gt(rng)
        assert abs(oks(gt.keypoints, [gt])[..., 0] - 1.0) <= 1e-9

    def test_single_keypoint_closed_form(self):
        kps = np.zeros((17, 3))
        kps[0] = (10.0, 10.0, 2)
        gt = GroundTruthInstance(keypoints=kps, area=400.0)
        h0 = DEFAULT_FALLOFF[0]
        d = math.sqrt(2.0 * 400.0 * h0 * h0)
        pred = kps.copy()
        pred[0, 0] += d
        assert abs(oks(pred, [gt])[..., 0] - math.exp(-1.0)) <= 1e-9

    def test_displaced_to_infinity(self):
        kps = np.zeros((17, 3))
        kps[0] = (10.0, 10.0, 2)
        gt = GroundTruthInstance(keypoints=kps, area=400.0)
        pred = kps.copy()
        pred[0, 0] += 1e6 * math.sqrt(400.0) * DEFAULT_FALLOFF[0]
        assert oks(pred, [gt])[..., 0] < 1e-12

    def test_subnormal_scale(self):
        """An area of 1e-320 gives a subnormal scale: a distance of 1 px
        over it overflows to a term of exactly 0, with no warning."""
        kps = np.zeros((17, 3))
        kps[0] = (10.0, 10.0, 2)
        gt = GroundTruthInstance(keypoints=kps, area=1e-320)
        pred = kps.copy()
        assert oks(pred, [gt])[..., 0] == 1.0
        pred[0, 0] += 1.0
        assert oks(pred, [gt])[..., 0] == 0.0

    def test_no_visible_keypoints_rejected(self):
        gt = GroundTruthInstance(keypoints=np.zeros((17, 3)), area=100.0)
        with pytest.raises(DomainError):
            oks(np.zeros((17, 3)), [gt])

    def test_range_and_monotonicity(self, rng):
        gt = make_gt(rng, all_visible=True)
        pred = gt.keypoints.copy()
        last = 1.0
        for step in range(6):
            v = oks(pred, [gt])[..., 0]
            assert 0.0 <= v <= last <= 1.0
            last = v
            pred = pred.copy()
            pred[:, 0] += 3.0  # every distance grows

    def test_translation_invariance(self, rng):
        gt = make_gt(rng, all_visible=True)
        pred = perturbed_detection(rng, gt, 2.0, 0.9).keypoints[0]
        base = oks(pred, [gt])[..., 0]
        shift = np.array([137.0, -55.0, 0.0])
        gt2 = GroundTruthInstance(keypoints=gt.keypoints + shift, area=gt.area)
        assert abs(oks(pred + shift, [gt2])[..., 0] - base) <= 1e-12

    def test_broadcast_matches_per_pair(self, rng):
        gt = make_gt(rng)
        preds = gt.keypoints + rng.normal(0, 4.0, (6, 5, 17, 3))
        got = oks(preds, [gt])[..., 0]
        assert got.shape == (6, 5)
        want = [[old_oks(p, gt) for p in row] for row in preds]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert oks(preds[2, 3], [gt])[..., 0] == pytest.approx(want[2][3], rel=0, abs=1e-12)

    def test_no_instances(self):
        assert oks(np.zeros((4, 17, 3)), []).shape == (4, 0)

    def test_keypoint_count_mismatch(self, rng):
        with pytest.raises(ShapeError):
            oks(np.zeros((4, 16, 3)), [make_gt(rng)])

    def test_scale_consistency(self, rng):
        gt = make_gt(rng, all_visible=True)
        pred = perturbed_detection(rng, gt, 2.0, 0.9).keypoints[0]
        base = oks(pred, [gt])[..., 0]
        alpha = 3.5
        scaled = gt.keypoints.copy()
        scaled[:, :2] *= alpha
        gt2 = GroundTruthInstance(keypoints=scaled, area=gt.area * alpha ** 2)
        pred2 = pred.copy()
        pred2[:, :2] *= alpha
        assert abs(oks(pred2, [gt2])[..., 0] - base) <= 1e-12


def oracle_ap50(preds_by_image, gts_by_image, sigmas):
    """Independent AP@0.50: exhaustive assignment enumeration per image,
    selecting the score-priority lexicographic optimum, then a direct
    101-point interpolated precision."""
    t = float(OKS_THRESHOLDS[0])
    scores, flags = [], []
    n_gt = 0
    for img in sorted(set(preds_by_image) | set(gts_by_image)):
        dets = old_objects(preds_by_image[img]) if img in preds_by_image else []
        dets = sorted(dets, key=lambda d: -d.score)[:20]
        gts = [g for g in gts_by_image.get(img, []) if np.any(g.visible)]
        n_gt += len(gts)
        matrix = np.array([[old_oks(d.keypoints, g, sigmas.falloff) for g in gts]
                           for d in dets]).reshape(len(dets), len(gts))
        best_tuple, best_flags = None, [0] * len(dets)
        gt_idx = list(range(len(gts)))
        for r in range(min(len(dets), len(gts)), -1, -1):
            for det_subset in itertools.combinations(range(len(dets)), r):
                for perm in itertools.permutations(gt_idx, r):
                    vals = [-1.0] * len(dets)
                    ok = True
                    for d_i, g_i in zip(det_subset, perm):
                        if matrix[d_i, g_i] >= t:
                            vals[d_i] = matrix[d_i, g_i]
                        else:
                            ok = False
                            break
                    if not ok:
                        continue
                    key = tuple(vals)
                    if best_tuple is None or key > best_tuple:
                        best_tuple = key
                        best_flags = [1 if v >= 0 else 0 for v in vals]
        scores.extend(d.score for d in dets)
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


class TestEvaluate:
    def test_single_prediction_between_thresholds(self, rng):
        # construct a prediction whose OKS lands strictly inside (0.50, 0.55)
        kps = np.zeros((17, 3))
        kps[0] = (50.0, 50.0, 2)
        gt = GroundTruthInstance(keypoints=kps, area=400.0)
        h0 = DEFAULT_FALLOFF[0]
        d = math.sqrt(-2.0 * 400.0 * h0 * h0 * math.log(0.52))
        pred_kps = kps.copy()
        pred_kps[0, 0] += d
        pred_kps[:, 2] = 0.9
        det = one((50, 50, 20, 20), 0.9, pred_kps)
        assert 0.50 < oks(pred_kps, [gt])[..., 0] < 0.55
        metrics = evaluate({0: det}, {0: [gt]})
        assert metrics["AP50"] == 1.0
        assert metrics["AP75"] == 0.0
        assert metrics["AP"] == pytest.approx(0.1, abs=1e-12)

    def test_zero_predictions(self, rng):
        gt = make_gt(rng)
        metrics = evaluate({}, {0: [gt]})
        assert metrics["AP"] == 0.0 and metrics["AR"] == 0.0

    def test_perfect_predictions(self, rng):
        gts, preds = {}, {}
        for img in range(3):
            instances = [make_gt(rng, center=(40.0 + 30 * k, 50.0))
                         for k in range(2)]
            gts[img] = instances
            kps = np.stack([g.keypoints for g in instances])
            kps[:, :, 2] = 0.95
            boxes = [(x + w / 2, y + h / 2, w, h) for x, y, w, h in (g.bbox for g in instances)]
            preds[img] = Detections(boxes, [0.9] * len(instances), kps)
        metrics = evaluate(preds, gts)
        assert metrics["AP"] == 1.0
        assert metrics["AP50"] == 1.0 and metrics["AP75"] == 1.0
        assert metrics["AR"] == 1.0

    def test_matches_exhaustive_oracle_on_tiny_cases(self):
        rng = np.random.default_rng(2024)
        sigmas = KeypointSigmas()
        for case in range(25):
            gts, preds = {}, {}
            for img in range(int(rng.integers(1, 4))):
                n_gt = int(rng.integers(0, 5))
                n_det = int(rng.integers(0, 5))
                gts[img] = [make_gt(rng, center=tuple(rng.uniform(20, 120, 2)),
                                    area=float(rng.uniform(100, 2500)))
                            for _ in range(n_gt)]
                dets = []
                for k in range(n_det):
                    target = gts[img][k % n_gt] if n_gt else make_gt(rng)
                    dets.append(perturbed_detection(
                        rng, target, noise=float(rng.uniform(0.5, 15.0)),
                        score=float(rng.uniform(0.05, 0.99))))
                if dets:
                    preds[img] = Detections.concatenate(dets)
            got = evaluate(preds, gts, sigmas)["AP50"]
            want = oracle_ap50(preds, gts, sigmas)
            assert got == want, f"case {case}: {got} != {want}"

    def test_apl_restricts_to_large(self, rng):
        small = make_gt(rng, center=(30, 30), area=50.0 ** 2)
        large = make_gt(rng, center=(120, 120), area=150.0 ** 2)
        det_small = perturbed_detection(rng, small, 0.5, 0.9)
        det_large = perturbed_detection(rng, large, 0.5, 0.8)
        metrics = evaluate({0: Detections.concatenate([det_small, det_large])},
                           {0: [small, large]})
        assert metrics["APL"] == 1.0 and metrics["AP"] == 1.0


def matcher_case(rng):
    """Seeded images with ground truths only, detections only, both, or
    more than 20 detections.  Ground truths are small (ignored in the APL
    pass) or large, and some are copied, exactly or with the other area,
    so one detection ties exactly or finds a counted and an ignored match.
    Some detections copy half the visible keypoints of a ground truth and
    throw the rest far off, an OKS of exactly 0.5, the first threshold.
    Scores are coarse, so they tie too."""
    gts, preds = {}, {}
    for img in range(int(rng.integers(0, 6))):
        kind = int(rng.integers(4))     # 0 both, 1 gts only, 2 dets only, 3 crowded
        n_gt = 0 if kind == 2 else int(rng.integers(1, 5))
        n_det = (0 if kind == 1 else int(rng.integers(21, 28)) if kind == 3
                 else int(rng.integers(1, 8)))
        sides = (40.0, 130.0)
        instances = [make_gt(rng, center=tuple(rng.uniform(60, 400, 2)),
                             spread=float(rng.uniform(5, 80)),
                             area=float(rng.choice(sides)) ** 2)
                     for _ in range(n_gt)]
        if n_gt and rng.random() < 0.7:
            g = instances[int(rng.integers(n_gt))]
            area = (g.area if rng.random() < 0.5
                    else (sides[0] if g.area > LARGE_AREA else sides[1]) ** 2)
            instances.insert(int(rng.integers(n_gt)),
                             BoxedGt(g.keypoints.copy(), area, g.bbox))
        dets = []
        for k in range(n_det):
            target = instances[k % len(instances)] if instances else make_gt(rng)
            det = perturbed_detection(rng, target, float(rng.uniform(0.0, 12.0)),
                                      float(rng.integers(1, 5)) / 4.0)
            if rng.random() < 0.2:
                vis = np.flatnonzero(target.visible)
                far = rng.choice(vis, size=len(vis) // 2, replace=False)
                det.keypoints[0, :, :2] = target.keypoints[:, :2]
                det.keypoints[0, far, 0] += 1e6
            dets.append(det)
            if rng.random() < 0.2:
                dets.append(dets[-1])
        if kind != 2 or rng.random() < 0.5:
            gts[img] = instances
        if dets:
            preds[img] = Detections.concatenate(dets)
        elif rng.random() < 0.5:
            preds[img] = boxes_only(np.zeros((0, 4)), [])
    return preds, gts


class TestMatcher:
    """The rank-by-rank matcher over every image and threshold at once
    against the per-image, per-threshold greedy loop it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_threshold_matcher(self, seed):
        rng = np.random.default_rng(seed)
        sigmas = KeypointSigmas()
        for _ in range(12):
            preds, gts = matcher_case(rng)
            old_tables = old_score_images(preds, gts, sigmas, 20)
            _, _, det_real, gt_area, gt_real, table = decode_module._score_images(
                preds, gts, sigmas)
            for area_range in (None, (LARGE_AREA, float("inf"))):
                counted = gt_real
                if area_range is not None:
                    counted = gt_real & (area_range[0] < gt_area) & (gt_area <= area_range[1])
                got = decode_module._greedy_match(table, ~counted)
                _, _, want = old_evaluate_pass(old_tables, area_range)
                for t in range(len(OKS_THRESHOLDS)):
                    for i in range(len(old_tables)):
                        np.testing.assert_array_equal(
                            got[i, t, det_real[i]], want[t * len(old_tables) + i])
            assert evaluate(preds, gts, sigmas) == old_evaluate(preds, gts, sigmas)

    @pytest.mark.parametrize("seed", range(8))
    def test_oks_table_equals_per_instance_oks(self, seed):
        """Each image's OKS table, computed once over (detections, ground
        truths, keypoints), holds the bytes of one OKS per ground truth."""
        rng = np.random.default_rng(seed)
        sigmas = KeypointSigmas()
        for _ in range(12):
            preds, gts = matcher_case(rng)
            table = decode_module._score_images(preds, gts, sigmas)[5]
            for i, (*_, want) in enumerate(old_score_images(preds, gts, sigmas, 20)):
                got = table[i, :want.shape[0], :want.shape[1]]
                assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    def test_cases_cover_ties_ignored_and_crowds(self):
        """The seeded cases above reach every situation they are meant to."""
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(12):
            preds, gts = matcher_case(rng)
            for img in set(preds) | set(gts):
                n_det = len(preds[img]) if img in preds else 0
                areas = [g.area for g in gts.get(img, [])]
                seen.add("gts only" if not n_det and areas else
                         "dets only" if n_det and not areas else "both")
                seen.update(["crowded"] * (n_det > 20))
            for img, dets in preds.items():
                instances = gts.get(img, [])
                table = old_score_images({img: dets}, {img: instances},
                                         KeypointSigmas(), 20)[0][3]
                large = np.array([g.area > LARGE_AREA for g in instances
                                  if np.any(g.visible)], dtype=bool)
                above = table >= OKS_THRESHOLDS[0]
                seen.update(["oks tie"] * any(len(set(row)) < len(row)
                                              for row in table.tolist()))
                seen.update(["counted and ignored open"]
                            * bool(np.any(above[:, large].any(1) & above[:, ~large].any(1))))
                seen.update(["oks at a threshold"] * bool(np.any(table == OKS_THRESHOLDS[0])))
        assert seen >= {"gts only", "dets only", "both", "crowded", "oks tie",
                        "counted and ignored open", "oks at a threshold"}

    def test_empty_inputs(self, rng):
        sigmas = KeypointSigmas()
        empty = boxes_only(np.zeros((0, 4)), [])
        for preds, gts in [({}, {}), ({4: empty}, {}), ({}, {4: []}),
                           ({}, {2: [make_gt(rng)]}),
                           ({2: perturbed_detection(rng, make_gt(rng), 1.0, 0.5)}, {})]:
            assert evaluate(preds, gts, sigmas) == old_evaluate(preds, gts, sigmas)


class TestCocoFiles:
    def test_round_trip(self, tmp_path, rng):
        gt = make_gt(rng, all_visible=True)
        det = perturbed_detection(rng, gt, 1.0, 0.7)
        path = tmp_path / "results.json"
        write_results({3: det}, path)
        back = read_results(path)
        assert list(back) == [3]
        np.testing.assert_allclose(back[3].keypoints, det.keypoints)
        np.testing.assert_allclose(back[3].scores, det.scores)
        np.testing.assert_allclose(back[3].boxes, det.boxes)

    def test_missing_bbox_takes_keypoint_extent(self, tmp_path):
        wide = [10.0, 20.0, 0.9] * 17
        wide[3:5] = [40.0, 25.0]
        flat = [10.0, 20.0, 0.9] * 17
        flat[:2] = [30.0, 20.5]
        path = tmp_path / "results.json"
        path.write_text(json.dumps([
            {"image_id": 1, "score": 0.5, "keypoints": wide},
            {"image_id": 1, "score": 0.4, "keypoints": flat},
            {"image_id": 1, "score": 0.3, "keypoints": wide,
             "bbox": [1.0, 2.0, 3.0, 4.0]},
            {"image_id": 2, "score": 0.2, "keypoints": wide}]))
        results = read_results(path)
        np.testing.assert_array_equal(results[2].boxes, [[25.0, 22.5, 30.0, 5.0]])
        dets = results[1]
        # the 0.5 px tall extent is raised to 1 px
        np.testing.assert_array_equal(dets.boxes, [[25.0, 22.5, 30.0, 5.0],
                                                   [20.0, 20.5, 20.0, 1.0],
                                                   [2.5, 4.0, 3.0, 4.0]])
        np.testing.assert_array_equal(dets.scores, [0.5, 0.4, 0.3])

    @pytest.mark.parametrize("payload", [
        [{"image_id": 1, "score": 0.5}],
        [{"image_id": 1, "keypoints": [1.0, 2.0, 0.5]}],
        [{"score": 0.5, "keypoints": [1.0, 2.0, 0.5]}],
        [{"image_id": 1, "score": 0.5, "keypoints": [1.0, 2.0]}],
        [{"image_id": 1, "score": 0.5, "keypoints": [1.0, 2.0, 0.5]},
         {"image_id": 1, "score": 0.5, "keypoints": [1.0, 2.0, 0.5] * 2}],
        [{"image_id": 1, "score": 0.5, "keypoints": []}],
        [{"image_id": 1, "score": 0.5, "keypoints": [1.0, 2.0, 0.5],
          "bbox": [0.0, 0.0, 1.0]}],
        [{"image_id": 1, "score": "high", "keypoints": [1.0, 2.0, 0.5]}],
        [{"image_id": 1, "score": float("nan"), "keypoints": [1.0, 2.0, 0.5]}],
        [{"image_id": 1, "score": 0.5, "keypoints": [1.0, float("inf"), 0.5]}],
        [{"image_id": 1, "score": 0.5, "keypoints": [1.0, 2.0, float("nan")]}],
        [{"image_id": 1, "score": 0.5, "keypoints": [1.0, 2.0, 0.5],
          "bbox": [0.0, float("-inf"), 1.0, 1.0]}],
        [[1, 0.5]],
        {"image_id": 1},
        [{"image_id": 1, "score": 0.5, "keypoints": [1.0, "left", 0.5]}],
        [{"image_id": 1, "score": 0.5, "keypoints": [1.0, 2.0, 0.5], "bbox": 5}],
        [{"image_id": "x", "score": 0.5, "keypoints": [1.0, 2.0, 0.5]}],
        [{"image_id": float("inf"), "score": 0.5, "keypoints": [1.0, 2.0, 0.5]}],
        [{"image_id": 1, "score": 10 ** 400, "keypoints": [1.0, 2.0, 0.5]}],
        [{"image_id": 1, "score": 0.5, "keypoints": [1.0, 2.0, 10 ** 400]}],
    ])
    def test_malformed_results_rejected(self, payload, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            read_results(path)

    @pytest.mark.parametrize("bad", [
        {"image_id": 1, "score": 0.5, "keypoints": [1.0, "left", 0.5]},
        {"image_id": 2, "score": 0.5, "keypoints": [1.0, 2.0, float("inf")]},
        {"image_id": 1, "score": 0.5, "keypoints": [1.0, 2.0]},
        {"image_id": 2, "score": 0.5, "keypoints": []},
        {"image_id": "x", "score": 0.5, "keypoints": [1.0, 2.0, 0.5]},
        {"image_id": 1, "score": 0.5, "keypoints": [1.0, 2.0, 0.5], "bbox": 5},
    ])
    def test_first_bad_entry_named(self, bad, tmp_path):
        """Entry 2 is named, whether its fault is found in the per-entry
        pass or in its image's keypoint array, ahead of a later bad entry."""
        good = {"image_id": 1, "score": 0.5, "keypoints": [1.0, 2.0, 0.5]}
        path = tmp_path / "results.json"
        path.write_text(json.dumps([good, dict(good, image_id=2), bad, good,
                                    {"image_id": 1, "keypoints": []}]))
        with pytest.raises(FormatError, match="results entry 2"):
            read_results(path)

    def test_images_may_differ_in_keypoint_count(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(json.dumps([
            {"image_id": 1, "score": 0.5, "keypoints": [1.0, 2.0, 0.5] * 17},
            {"image_id": 2, "score": 0.4, "keypoints": [3.0, 4.0, 0.5] * 5},
            {"image_id": 1, "score": 0.3, "keypoints": [5.0, 6.0, 0.5] * 17}]))
        results = read_results(path)
        assert results[1].keypoints.shape == (2, 17, 3)
        assert results[2].keypoints.shape == (1, 5, 3)
        np.testing.assert_array_equal(results[2].boxes, [[3.5, 4.5, 1.0, 1.0]])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_entry_reader(self, seed, tmp_path):
        """Seeded files, mostly malformed: the same Detections, or a
        FormatError naming the same entry, as the per-entry reader."""
        rng = np.random.default_rng(seed)
        path = tmp_path / "results.json"
        for _ in range(150):
            path.write_text(json.dumps(random_results(rng)))
            try:
                want = old_read_results(path)
            except FormatError as exc:
                entry = re.match(r"results entry \d+|results for image", str(exc))
                with pytest.raises(FormatError, match=entry.group(0) + r"\b"):
                    read_results(path)
                continue
            except DomainError:
                with pytest.raises(DomainError):
                    read_results(path)
                continue
            except OverflowError:       # an infinite image_id: now a FormatError
                with pytest.raises(FormatError, match=r"results entry \d+"):
                    read_results(path)
                continue
            got = read_results(path)
            assert list(got) == list(want)
            for image_id, dets in want.items():
                np.testing.assert_array_equal(got[image_id].boxes, dets.boxes)
                np.testing.assert_array_equal(got[image_id].scores, dets.scores)
                np.testing.assert_array_equal(got[image_id].keypoints, dets.keypoints)

    @pytest.mark.parametrize("payload", [
        {"annotations": [{"image_id": 1, "area": 10.0}]},
        {"annotations": [{"keypoints": [1.0, 2.0, 2.0], "area": 10.0}]},
        {"annotations": [{"image_id": float("inf"), "keypoints": [1.0, 2.0, 2.0]}]},
        {"images": []},
        [5],
        # non-finite keypoints or area: AP 0.0, AP 0.9 and APL 1.0 if read
        {"annotations": [{"image_id": 1, "keypoints": [float("nan"), 2.0, 2.0],
                          "area": 10.0}]},
        {"annotations": [{"image_id": 1, "keypoints": [float("inf"), 2.0, 2.0],
                          "area": 10.0}]},
        {"annotations": [{"image_id": 1, "keypoints": [1.0, 2.0, 2.0],
                          "area": float("inf")}]},
    ])
    def test_malformed_ground_truth_rejected(self, payload, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            read_ground_truth(path)

    def test_ground_truth_ignores_unknown_fields(self, tmp_path):
        ann = {"annotations": [{
            "image_id": 7, "category_id": 1, "iscrowd": 0, "extra": "x",
            "keypoints": [5.0, 6.0, 2.0] + [0.0] * 48,
            "area": 250.0, "bbox": [0.0, 0.0, 10.0, 25.0],
        }], "images": [{"id": 7}]}
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(ann))
        gts = read_ground_truth(path)
        assert list(gts) == [7]
        assert gts[7][0].area == 250.0
        assert gts[7][0].keypoints[0, 2] == 2.0
