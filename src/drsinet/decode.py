"""Anchor decoding, non-maximum suppression, keypoint similarity and the
AP/AR evaluation protocol over COCO-style keypoint files.

Decode formulas, per grid cell (i, j) with stride s and anchor (a_w, a_h):

    bx = (2 sig(tx) - 0.5 + j) * s          bw = (2 sig(tw))^2 * a_w
    by = (2 sig(ty) - 0.5 + i) * s          bh = (2 sig(th))^2 * a_h
    kx = ((2 sig(tkx) - 0.5) * 4 - 1.5 + j) * s     (ky analogous with i)

confidences are plain sigmoids and a detection is emitted when
objectness * class_score reaches the threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logit

from .tensor import DomainError, ShapeError

# Per-keypoint falloff constants used directly in the similarity exponent
# exp(-d^2 / (2 s^2 h_i^2)).  The public keypoint protocol publishes the
# per-keypoint constants below (nose .. ankles) and applies a factor 2 inside
# its variance term; the factor is folded in here so scores are comparable
# to published numbers.
COCO_KEYPOINT_CONSTANTS = np.array(
    [0.26, 0.25, 0.25, 0.35, 0.35, 0.79, 0.79, 0.72, 0.72, 0.62, 0.62,
     1.07, 1.07, 0.87, 0.87, 0.89, 0.89]) / 10.0

DEFAULT_FALLOFF = 2.0 * COCO_KEYPOINT_CONSTANTS

OKS_THRESHOLDS = np.linspace(0.5, 0.95, 10)
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
LARGE_AREA = 96.0 ** 2


@dataclass
class Detection:
    """One decoded person instance in input-pixel coordinates."""

    box: tuple                 # (cx, cy, w, h)
    objectness: float
    class_score: float
    keypoints: np.ndarray      # (K, 3): x, y, confidence

    def __post_init__(self):
        self.keypoints = np.asarray(self.keypoints, dtype=np.float64)
        if self.keypoints.ndim != 2 or self.keypoints.shape[1] != 3:
            raise ShapeError("keypoints must be (K, 3)")
        if self.box[2] <= 0 or self.box[3] <= 0:
            raise DomainError(f"box sides must be positive, got {self.box}")

    @property
    def score(self):
        return self.objectness * self.class_score

    @property
    def area(self):
        return self.box[2] * self.box[3]


@dataclass
class GroundTruthInstance:
    """Annotated person: keypoints with visibility flags, scale and box."""

    keypoints: np.ndarray      # (K, 3): x, y, v with v in {0, 1, 2}
    area: float
    bbox: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        self.keypoints = np.asarray(self.keypoints, dtype=np.float64)
        if self.keypoints.ndim != 2 or self.keypoints.shape[1] != 3:
            raise ShapeError("keypoints must be (K, 3)")
        if not self.area > 0:       # also rejects NaN; OKS divides by the area
            raise DomainError(f"ground-truth area must be > 0, got {self.area}")

    @property
    def visible(self):
        return self.keypoints[:, 2] > 0


@dataclass
class KeypointSigmas:
    """Per-keypoint falloff constants; all positive."""

    falloff: np.ndarray = field(default_factory=lambda: DEFAULT_FALLOFF.copy())

    def __post_init__(self):
        self.falloff = np.asarray(self.falloff, dtype=np.float64).reshape(-1)
        if np.any(self.falloff <= 0):
            raise DomainError("falloff constants must be positive")


# ---------------------------------------------------------------------------
# decode / encode
# ---------------------------------------------------------------------------

def decode(head, stride, anchors, conf_threshold, num_keypoints=17):
    """Decode one head tensor (batch 1) into detections above the threshold."""
    data = head.numpy() if hasattr(head, "numpy") else np.asarray(head)
    if data.ndim != 4 or data.shape[0] != 1:
        raise ShapeError(f"head must be (1, c, h, w), got {data.shape}")
    fields = 5 + 1 + 3 * num_keypoints
    n_anchor = len(anchors)
    if data.shape[1] != n_anchor * fields:
        raise ShapeError(
            f"head has {data.shape[1]} channels, expected {n_anchor * fields}")
    _, _, h, w = data.shape
    t = data.reshape(n_anchor, fields, h, w).astype(np.float64)
    jj = np.arange(w).reshape(1, 1, w)
    ii = np.arange(h).reshape(1, h, 1)
    s = float(stride)

    sig = expit(t)
    obj = sig[:, 4]
    cls = sig[:, 5]
    score = obj * cls
    keep = score >= conf_threshold

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
        dets.append(Detection(
            box=(float(bx[a, i, j]), float(by[a, i, j]),
                 float(bw[a, i, j]), float(bh[a, i, j])),
            objectness=float(obj[a, i, j]),
            class_score=float(cls[a, i, j]),
            keypoints=kps))
    return dets


def encode(box, keypoints, stride, anchor, cell, objectness=0.9,
           class_score=0.9, num_keypoints=17):
    """Inverse of :func:`decode` for one target at a known cell and anchor.

    Returns the per-anchor logit vector.  Raises if the target is not
    representable from the given cell (offsets outside the decode range).
    """
    i, j = cell
    s = float(stride)
    kps = np.asarray(keypoints, dtype=np.float64)
    out = np.empty(5 + 1 + 3 * num_keypoints, dtype=np.float64)

    def inv(p, lo, hi, what):
        if not lo < p < hi:
            raise DomainError(f"{what} fraction {p} outside ({lo}, {hi})")
        return logit(p)

    out[0] = inv((box[0] / s - j + 0.5) / 2.0, 0.0, 1.0, "center-x")
    out[1] = inv((box[1] / s - i + 0.5) / 2.0, 0.0, 1.0, "center-y")
    out[2] = inv(np.sqrt(box[2] / anchor[0]) / 2.0, 0.0, 1.0, "width")
    out[3] = inv(np.sqrt(box[3] / anchor[1]) / 2.0, 0.0, 1.0, "height")
    out[4] = inv(objectness, 0.0, 1.0, "objectness")
    out[5] = inv(class_score, 0.0, 1.0, "class score")
    for k in range(num_keypoints):
        out[6 + 3 * k] = inv(((kps[k, 0] / s - j + 1.5) / 4.0 + 0.5) / 2.0,
                             0.0, 1.0, f"keypoint {k} x")
        out[7 + 3 * k] = inv(((kps[k, 1] / s - i + 1.5) / 4.0 + 0.5) / 2.0,
                             0.0, 1.0, f"keypoint {k} y")
        out[8 + 3 * k] = inv(kps[k, 2], 0.0, 1.0, f"keypoint {k} confidence")
    return out


# ---------------------------------------------------------------------------
# non-maximum suppression
# ---------------------------------------------------------------------------

def _corners(box):
    cx, cy, w, h = box
    return cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0


def box_iou(a, b):
    """Intersection over union of two (cx, cy, w, h) boxes."""
    ax1, ay1, ax2, ay2 = _corners(a)
    bx1, by1, bx2, by2 = _corners(b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def nms(dets, iou_threshold):
    """Greedy suppression by descending score; ties keep input order."""
    if not 0.0 < iou_threshold < 1.0:
        raise DomainError(f"iou_threshold must be in (0, 1), got {iou_threshold}")
    order = sorted(range(len(dets)), key=lambda k: -dets[k].score)
    kept = []
    for k in order:
        if all(box_iou(dets[k].box, dets[j].box) <= iou_threshold for j in kept):
            kept.append(k)
    return [dets[k] for k in sorted(kept)]


# ---------------------------------------------------------------------------
# keypoint similarity and evaluation
# ---------------------------------------------------------------------------

def oks(pred_keypoints, gt, sigmas=None):
    """Similarity of predicted keypoints to one annotated instance."""
    sigmas = sigmas or KeypointSigmas()
    pred = np.asarray(pred_keypoints, dtype=np.float64)
    vis = gt.visible
    if not np.any(vis):
        raise DomainError("ground-truth instance has no visible keypoints")
    if pred.shape[0] != gt.keypoints.shape[0]:
        raise ShapeError("prediction and ground truth disagree on keypoint count")
    d2 = ((pred[:, 0] - gt.keypoints[:, 0]) ** 2
          + (pred[:, 1] - gt.keypoints[:, 1]) ** 2)
    s2 = float(gt.area)
    terms = np.exp(-d2 / (2.0 * s2 * sigmas.falloff ** 2))
    return float(terms[vis].mean())


def _greedy_match(oks_matrix, threshold, gt_ignore):
    """Greedy matching at one threshold over a precomputed OKS matrix.

    Detections are row-ordered by descending score.  Returns per-detection
    flags: 1 = matched a counted gt, 0 = unmatched, -1 = matched an ignored
    gt.  Counted ground truths are preferred over ignored ones.
    """
    n_det, n_gt = oks_matrix.shape
    flags = np.zeros(n_det, dtype=np.int8)
    taken = [False] * n_gt
    order = sorted(range(n_gt), key=lambda g: gt_ignore[g])  # counted first
    for d in range(n_det):
        best, best_oks = -1, threshold
        for g in order:
            if taken[g]:
                continue
            if best >= 0 and not gt_ignore[best] and gt_ignore[g]:
                break  # a counted match is already in hand
            if oks_matrix[d, g] >= best_oks:
                best, best_oks = g, oks_matrix[d, g]
        if best >= 0:
            taken[best] = True
            flags[d] = -1 if gt_ignore[best] else 1
    return flags


def _average_precision(tp_flags, n_gt):
    """101-point interpolated AP from globally ranked detection flags."""
    counted = tp_flags >= 0
    if n_gt == 0 or not np.any(counted):
        return 0.0
    tp = np.cumsum((tp_flags == 1) & counted)
    fp = np.cumsum((tp_flags == 0) & counted)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1)
    # enforce monotone non-increasing precision before interpolation
    for i in range(len(precision) - 1, 0, -1):
        if precision[i] > precision[i - 1]:
            precision[i - 1] = precision[i]
    idx = np.searchsorted(recall, RECALL_POINTS, side="left")
    interp = np.where(idx < len(precision),
                      precision[np.minimum(idx, len(precision) - 1)], 0.0)
    return float(np.mean(interp))


def _evaluate_pass(preds_by_image, gts_by_image, sigmas, max_dets,
                   area_range=None):
    """One matching/accumulation pass; optionally restricted by gt area."""
    image_ids = sorted(set(preds_by_image) | set(gts_by_image))
    per_image = []
    n_gt = 0
    for img in image_ids:
        dets = sorted(preds_by_image.get(img, []), key=lambda d: -d.score)
        dets = dets[:max_dets]
        gts = [g for g in gts_by_image.get(img, []) if np.any(g.visible)]
        matrix = np.array([[oks(d.keypoints, g, sigmas) for g in gts]
                           for d in dets], dtype=np.float64).reshape(len(dets), len(gts))
        if area_range is None:
            ignore = [False] * len(gts)
            det_out = [False] * len(dets)
        else:
            lo, hi = area_range
            ignore = [not (lo < g.area <= hi) for g in gts]
            det_out = [not (lo < d.area <= hi) for d in dets]
        n_gt += sum(1 for ig in ignore if not ig)
        per_image.append((dets, matrix, ignore, det_out))

    ap, rec = [], []
    for t in OKS_THRESHOLDS:
        scores, flags = [], []
        for dets, matrix, ignore, det_out in per_image:
            f = _greedy_match(matrix, t, ignore)
            for d_idx in range(len(dets)):
                if f[d_idx] == 0 and det_out[d_idx]:
                    f[d_idx] = -1  # unmatched out-of-range detection
            scores.extend(d.score for d in dets)
            flags.extend(f)
        order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
        flags_arr = (np.asarray(flags, dtype=np.int8)[order]
                     if flags else np.zeros(0, dtype=np.int8))
        ap.append(_average_precision(flags_arr, n_gt))
        rec.append(float(np.sum(flags_arr == 1)) / n_gt if n_gt else 0.0)
    return np.asarray(ap), np.asarray(rec)


def evaluate(preds_by_image, gts_by_image, sigmas=None, max_dets=20):
    """AP/AR protocol over per-image detections and annotations.

    Ground-truth instances without visible keypoints are skipped.  Detections
    are capped at ``max_dets`` per image by score.  Returns AP (mean over
    thresholds 0.50..0.95), AP50, AP75, APL (gt area > 96^2) and AR (mean
    recall over the thresholds at the detection cap).
    """
    sigmas = sigmas or KeypointSigmas()
    ap, recall = _evaluate_pass(preds_by_image, gts_by_image, sigmas, max_dets)
    ap_large, _ = _evaluate_pass(preds_by_image, gts_by_image, sigmas, max_dets,
                                 area_range=(LARGE_AREA, float("inf")))
    return {
        "AP": float(ap.mean()),
        "AP50": float(ap[0]),
        "AP75": float(ap[5]),
        "APL": float(ap_large.mean()),
        "AR": float(recall.mean()),
    }


# ---------------------------------------------------------------------------
# COCO-style file interfaces
# ---------------------------------------------------------------------------

def read_ground_truth(path):
    """Read a COCO keypoint annotation file into per-image instances."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    annotations = data["annotations"] if isinstance(data, dict) else data
    out = {}
    for ann in annotations:
        kps = np.asarray(ann["keypoints"], dtype=np.float64).reshape(-1, 3)
        bbox = tuple(float(v) for v in ann.get("bbox", (0, 0, 0, 0)))
        area = float(ann.get("area", max(bbox[2] * bbox[3], 1.0)))
        out.setdefault(int(ann["image_id"]), []).append(
            GroundTruthInstance(keypoints=kps, area=area, bbox=bbox))
    return out


def read_results(path):
    """Read a COCO keypoint results array into per-image detections."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    out = {}
    for item in data:
        kps = np.asarray(item["keypoints"], dtype=np.float64).reshape(-1, 3)
        score = float(item["score"])
        if "bbox" in item:
            x, y, w, h = (float(v) for v in item["bbox"])
        else:
            x, y = kps[:, 0].min(), kps[:, 1].min()
            w = max(float(kps[:, 0].max() - x), 1.0)
            h = max(float(kps[:, 1].max() - y), 1.0)
        out.setdefault(int(item["image_id"]), []).append(Detection(
            box=(x + w / 2.0, y + h / 2.0, w, h),
            objectness=score, class_score=1.0, keypoints=kps))
    return out


def write_results(dets_by_image, path, category_id=1):
    """Write detections as a COCO keypoint results array."""
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
