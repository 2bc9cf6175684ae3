"""Reference decode, greedy NMS and COCO-keypoint evaluator for checking
`drsinet forward` and `drsinet eval` outputs.

Nothing here imports drsinet: the decode follows the formulas in the
docstring of `drsinet/decode.py`, and the evaluator follows the protocol the
README states (greedy matching by descending score, 101-point interpolated
precision, 20 detections per image, APL over ground truths above 96^2).
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import expit

# Published per-keypoint constants of the COCO keypoint protocol (nose ..
# ankles); the protocol's variance term is (2 sigma)^2, so the falloff that
# enters exp(-d^2 / (2 area falloff^2)) is twice the constant.
COCO_SIGMAS = np.array([0.26, 0.25, 0.25, 0.35, 0.35, 0.79, 0.79, 0.72, 0.72,
                        0.62, 0.62, 1.07, 1.07, 0.87, 0.87, 0.89, 0.89]) / 10.0
FALLOFF = 2.0 * COCO_SIGMAS
THRESHOLDS = np.linspace(0.5, 0.95, 10)
RECALL_GRID = np.linspace(0.0, 1.0, 101)
MAX_DETS = 20
LARGE = 96.0 ** 2
METRIC_KEYS = ("AP", "AP50", "AP75", "APL", "AR")


class CheckError(Exception):
    """A program output disagrees with the reference."""


# ---------------------------------------------------------------------------
# forward: decode + greedy NMS
# ---------------------------------------------------------------------------

def decode_heads(heads, strides, anchors, conf, num_keypoints):
    """Decode per-level logits of shape (1, A*(6+3K), h, w).

    Returns a dict of arrays in candidate order (level, anchor, row, col):
    ``box`` (n, 4) as cx, cy, w, h; ``score`` (n,); ``kps`` (n, K, 3).
    """
    fields = 6 + 3 * num_keypoints
    boxes, scores, kps = [], [], []
    for head, s, level in zip(heads, strides, anchors):
        head = np.asarray(head, dtype=np.float64)
        _, ch, h, w = head.shape
        n_anchor = len(level)
        if ch != n_anchor * fields:
            raise ValueError(f"head has {ch} channels, expected {n_anchor * fields}")
        sig = expit(head[0].reshape(n_anchor, fields, h, w))
        col = np.arange(w)[None, None, :]
        row = np.arange(h)[None, :, None]
        score = sig[:, 4] * sig[:, 5]
        a, i, j = np.nonzero(score >= conf)
        aw = np.array([p[0] for p in level])[a]
        ah = np.array([p[1] for p in level])[a]
        bx = (2.0 * sig[a, 0, i, j] - 0.5 + j) * s
        by = (2.0 * sig[a, 1, i, j] - 0.5 + i) * s
        bw = (2.0 * sig[a, 2, i, j]) ** 2 * aw
        bh = (2.0 * sig[a, 3, i, j]) ** 2 * ah
        kx = ((2.0 * sig[:, 6::3] - 0.5) * 4.0 - 1.5 + col) * s
        ky = ((2.0 * sig[:, 7::3] - 0.5) * 4.0 - 1.5 + row) * s
        kc = sig[:, 8::3]
        boxes.append(np.stack([bx, by, bw, bh], axis=1))
        scores.append(score[a, i, j])
        kps.append(np.stack([kx[a, :, i, j], ky[a, :, i, j], kc[a, :, i, j]], axis=2))
    return {"box": np.concatenate(boxes).reshape(-1, 4),
            "score": np.concatenate(scores),
            "kps": np.concatenate(kps).reshape(-1, num_keypoints, 3)}


def greedy_nms(box, score, iou_threshold):
    """Indices kept by greedy suppression in descending score order (stable
    for ties); a candidate is dropped when its IoU with a kept box exceeds
    the threshold."""
    x1 = box[:, 0] - box[:, 2] / 2.0
    y1 = box[:, 1] - box[:, 3] / 2.0
    x2 = box[:, 0] + box[:, 2] / 2.0
    y2 = box[:, 1] + box[:, 3] / 2.0
    area = (x2 - x1) * (y2 - y1)
    kept = np.empty(len(score), dtype=np.int64)
    m = 0
    for k in np.argsort(-score, kind="stable"):
        kk = kept[:m]
        iw = np.minimum(x2[k], x2[kk]) - np.maximum(x1[k], x1[kk])
        ih = np.minimum(y2[k], y2[kk]) - np.maximum(y1[k], y1[kk])
        inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
        if np.any(inter / (area[k] + area[kk] - inter) > iou_threshold):
            continue
        kept[m] = k
        m += 1
    return kept[:m]


def reference_detections(heads, strides, anchors, conf, iou, num_keypoints):
    """Rows (score, bbox x, y, w, h, area, keypoints...) of decode + NMS,
    best first."""
    cand = decode_heads(heads, strides, anchors, conf, num_keypoints)
    keep = greedy_nms(cand["box"], cand["score"], iou)
    box = cand["box"][keep]
    rows = np.column_stack([
        cand["score"][keep],
        box[:, 0] - box[:, 2] / 2.0, box[:, 1] - box[:, 3] / 2.0, box[:, 2], box[:, 3],
        box[:, 2] * box[:, 3], cand["kps"][keep].reshape(len(keep), -1)])
    return rows[np.argsort(-rows[:, 0], kind="stable")]


def check_detections(raw, reference, image_id):
    """Check a detections file against reference rows (best first).

    The file must hold exactly the ``n`` highest-scoring reference entries,
    compared as a set within float tolerance, where ``n`` is the file's own
    count: a later top-k or max_det cap stays correct.  ``n`` must reach
    ``min(len(reference), MAX_DETS)``, since a smaller cap would change what
    the evaluator sees.
    """
    try:
        items = json.loads(raw)
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckError(f"detections file is not JSON: {exc}")
    if not isinstance(items, list):
        raise CheckError("detections file is not a JSON array")
    n = len(items)
    if n > len(reference) or n < min(len(reference), MAX_DETS):
        raise CheckError(f"{n} detections written, reference keeps {len(reference)}")
    try:
        got = np.array([[it["score"], *it["bbox"], it["area"], *it["keypoints"]]
                        for it in items], dtype=np.float64).reshape(n, reference.shape[1])
        ids = {int(it["image_id"]) for it in items}
        cats = {int(it["category_id"]) for it in items}
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed detection entry: {exc}")
    if n and (ids != {image_id} or cats != {1}):
        raise CheckError(f"image ids {sorted(ids)} / categories {sorted(cats)} are wrong")
    got = got[np.argsort(-got[:, 0], kind="stable")]
    want = reference[:n]
    if not np.allclose(got, want, rtol=1e-9, atol=1e-9):
        bad = int(np.argmax(np.any(~np.isclose(got, want, rtol=1e-9, atol=1e-9), axis=1)))
        raise CheckError(f"detection {bad} by score differs from the reference")


# ---------------------------------------------------------------------------
# eval: COCO keypoint protocol
# ---------------------------------------------------------------------------

def load_ground_truth(path):
    """{image_id: [(keypoints (K, 3), area)]} from a COCO annotation file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    out = {}
    for ann in data["annotations"]:
        out.setdefault(int(ann["image_id"]), []).append(
            (np.asarray(ann["keypoints"], dtype=np.float64).reshape(-1, 3),
             float(ann["area"])))
    return out


def load_results(path):
    """{image_id: [(keypoints (K, 3), score, area)]} from a results array.

    A detection's area is its bbox w*h, or, without a bbox, the extent of its
    keypoints with each side at least one pixel.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    out = {}
    for item in data:
        kps = np.asarray(item["keypoints"], dtype=np.float64).reshape(-1, 3)
        if "bbox" in item:
            area = float(item["bbox"][2]) * float(item["bbox"][3])
        else:
            area = (max(float(np.ptp(kps[:, 0])), 1.0)
                    * max(float(np.ptp(kps[:, 1])), 1.0))
        out.setdefault(int(item["image_id"]), []).append(
            (kps, float(item["score"]), area))
    return out


def oks_matrix(det_kps, gt_kps, gt_area):
    """OKS of every detection (D, K, 3) against every ground truth (G, K, 3)."""
    d2 = ((det_kps[:, None, :, 0] - gt_kps[None, :, :, 0]) ** 2
          + (det_kps[:, None, :, 1] - gt_kps[None, :, :, 1]) ** 2)
    e = np.exp(-d2 / (2.0 * gt_area[None, :, None] * FALLOFF ** 2))
    vis = gt_kps[None, :, :, 2] > 0
    return (e * vis).sum(axis=2) / vis.sum(axis=2)


def _match(ious, thr, gt_ignored):
    """Per-detection outcome at one threshold: 1 true positive, 0 false
    positive, -1 matched an ignored ground truth.  Each detection, best score
    first, takes the free ground truth of highest OKS at or above the
    threshold; counted ground truths win over ignored ones."""
    gt_order = np.argsort(gt_ignored, kind="stable")
    taken = np.zeros(len(gt_ignored), dtype=bool)
    out = np.zeros(ious.shape[0], dtype=np.int64)
    for d in range(ious.shape[0]):
        best, best_iou = -1, thr
        for g in gt_order:
            if taken[g]:
                continue
            if best >= 0 and not gt_ignored[best] and gt_ignored[g]:
                break
            if ious[d, g] >= best_iou:
                best, best_iou = g, ious[d, g]
        if best >= 0:
            taken[best] = True
            out[d] = -1 if gt_ignored[best] else 1
    return out


def _interpolated_ap(outcomes, n_gt):
    scored = outcomes[outcomes >= 0]
    if n_gt == 0 or scored.size == 0:
        return 0.0
    tp = np.cumsum(scored == 1)
    precision = tp / np.arange(1, scored.size + 1)
    recall = tp / n_gt
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_GRID, side="left")
    return float(np.where(idx < precision.size,
                          precision[np.minimum(idx, precision.size - 1)], 0.0).mean())


def _accumulate(gts, dets, large_only):
    per_thr = [[] for _ in THRESHOLDS]
    n_gt = 0
    for img in sorted(set(gts) | set(dets)):
        g = [x for x in gts.get(img, []) if np.any(x[0][:, 2] > 0)]
        d = sorted(dets.get(img, []), key=lambda x: -x[1])[:MAX_DETS]
        g_area = np.array([x[1] for x in g])
        ignored = (g_area <= LARGE) if large_only else np.zeros(len(g), dtype=bool)
        n_gt += int((~ignored).sum())
        ious = (oks_matrix(np.array([x[0] for x in d]), np.array([x[0] for x in g]), g_area)
                if d and g else np.zeros((len(d), len(g))))
        scores = np.array([x[1] for x in d])
        out_of_range = np.array([x[2] <= LARGE for x in d], dtype=bool)
        for t, thr in enumerate(THRESHOLDS):
            outcome = _match(ious, thr, ignored)
            if large_only:
                outcome[(outcome == 0) & out_of_range] = -1
            per_thr[t].append((scores, outcome))
    ap, recall = [], []
    for parts in per_thr:
        scores = np.concatenate([p[0] for p in parts]) if parts else np.zeros(0)
        outcome = np.concatenate([p[1] for p in parts]) if parts else np.zeros(0, int)
        outcome = outcome[np.argsort(-scores, kind="stable")]
        ap.append(_interpolated_ap(outcome, n_gt))
        recall.append(float((outcome == 1).sum()) / n_gt if n_gt else 0.0)
    return np.array(ap), np.array(recall)


def coco_keypoint_metrics(gts, dets):
    """AP (mean over OKS 0.50:0.05:0.95), AP50, AP75, APL and AR."""
    ap, recall = _accumulate(gts, dets, large_only=False)
    ap_large, _ = _accumulate(gts, dets, large_only=True)
    return {"AP": float(ap.mean()), "AP50": float(ap[0]), "AP75": float(ap[5]),
            "APL": float(ap_large.mean()), "AR": float(recall.mean())}


def check_metrics(text, reference):
    """Check `drsinet eval` output lines against reference metrics to the
    printed four decimals."""
    printed = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in METRIC_KEYS:
            try:
                printed[parts[0]] = float(parts[1])
            except ValueError:
                raise CheckError(f"unreadable metric line {line!r}")
    for key in METRIC_KEYS:
        if key not in printed:
            raise CheckError(f"metric {key} not printed")
        if not math.isclose(printed[key], reference[key], rel_tol=0.0, abs_tol=0.5e-4 + 1e-9):
            raise CheckError(f"{key} printed {printed[key]}, reference {reference[key]:.6f}")
