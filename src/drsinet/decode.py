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
import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import DomainError, ShapeError, _sigmoid

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
# detections per image the protocol scores, best first
MAX_DETS = 20

# Score-sorted rows per box_iou call in nms: the IoU matrix is (rows, alive),
# never (n, n).  A block's later rows also score the candidates its earlier
# rows drop, so long blocks waste work; at 16 rows the 16k candidates of
# drsinet-s@640 at conf 0.25 make 2 MB float64 temporaries.
_NMS_BLOCK_ROWS = 16

# Rows of the results array per json.dumps call in write_results: the row
# dicts and the text of one block are all it holds at once.
_WRITE_BLOCK_ROWS = 256


class FormatError(ValueError):
    """A COCO-style keypoint file is not an array of well-formed entries."""


class Detections:
    """Decoded person instances in input-pixel coordinates, one row each.

    ``boxes`` (M, 4) as cx, cy, w, h; ``scores`` (M,); ``keypoints``
    (M, K, 3) as x, y, confidence; all float64.  Index-array or slice
    selection (``dets[idx]``) and :meth:`concatenate` return new containers.
    """

    __slots__ = ("boxes", "scores", "keypoints")

    def __init__(self, boxes, scores, keypoints):
        self.boxes = np.asarray(boxes, dtype=np.float64)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.keypoints = np.asarray(keypoints, dtype=np.float64)
        if self.keypoints.ndim != 3 or self.keypoints.shape[2] != 3:
            raise ShapeError(f"keypoints must be (M, K, 3), got {self.keypoints.shape}")
        m = self.keypoints.shape[0]
        if self.boxes.shape != (m, 4) or self.scores.shape != (m,):
            raise ShapeError(f"boxes {self.boxes.shape} and scores {self.scores.shape} "
                             f"do not match {m} keypoint rows")
        bad = np.any(self.boxes[:, 2:] <= 0, axis=1)
        if bad.any():
            raise DomainError(f"box sides must be positive, got {self.boxes[bad][0].tolist()}")

    def __len__(self):
        return self.scores.shape[0]

    def __getitem__(self, idx):
        return Detections(self.boxes[idx], self.scores[idx], self.keypoints[idx])

    @staticmethod
    def concatenate(parts):
        """Rows of every container in ``parts``, in order."""
        return Detections(np.concatenate([p.boxes for p in parts]),
                          np.concatenate([p.scores for p in parts]),
                          np.concatenate([p.keypoints for p in parts]))

    @property
    def area(self):
        """Box areas w * h, (M,); a product past the float range is inf."""
        with np.errstate(over="ignore"):
            return self.boxes[:, 2] * self.boxes[:, 3]


@dataclass
class GroundTruthInstance:
    """Annotated person: keypoints with visibility flags and scale."""

    keypoints: np.ndarray      # (K, 3): x, y, v with v in {0, 1, 2}
    area: float

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
    """Per-keypoint falloff constants; all finite and positive."""

    falloff: np.ndarray = field(default_factory=lambda: DEFAULT_FALLOFF.copy())

    def __post_init__(self):
        try:
            self.falloff = np.asarray(self.falloff, dtype=np.float64).reshape(-1)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"falloff constants must be numbers: {exc}") from None
        # NaN fails every comparison, so the test is written to fail closed;
        # the OKS scale holds the square, which must not underflow to 0
        with np.errstate(over="ignore"):
            square = self.falloff ** 2
        if not np.all(np.isfinite(square) & (self.falloff > 0) & (square > 0)):
            raise DomainError("falloff constants must be finite and > 0, and so must "
                              "their squares")


# ---------------------------------------------------------------------------
# decode / encode
# ---------------------------------------------------------------------------

def decode(head, stride, anchors, conf_threshold):
    """Decode one head tensor (batch 1) into the :class:`Detections` whose
    score ``objectness * class_score`` reaches the threshold, ordered by
    (anchor, row, column).

    K comes from the head's ``A * (6 + 3K)`` channels.  A threshold outside
    [0, 1] and a head holding NaN or inf are refused.  A candidate whose
    width or height logit is so negative (below about -373.5) that
    ``(2 sig)^2`` underflows to 0 is dropped: a box with a zero side has no
    IoU and no OKS scale.
    """
    # NaN fails both range tests
    if not 0.0 <= conf_threshold <= 1.0:
        raise DomainError(f"conf_threshold must be in [0, 1], got {conf_threshold}")
    data = head.numpy() if hasattr(head, "numpy") else np.asarray(head)
    if data.ndim != 4 or data.shape[0] != 1:
        raise ShapeError(f"head must be (1, c, h, w), got {data.shape}")
    n_anchor, (_, c, h, w) = len(anchors), data.shape
    fields = c // max(n_anchor, 1)
    if not n_anchor or n_anchor * fields != c or fields < 9 or fields % 3:
        raise ShapeError(f"head has {c} channels, not {n_anchor} anchors of 6 + 3K, K >= 1")
    if not np.isfinite(data).all():
        raise DomainError(f"non-finite values in the heads at stride {stride}")
    t = data.reshape(n_anchor, fields, h, w)
    s = float(stride)

    score = _sigmoid(t[:, 4].astype(np.float64)) * _sigmoid(t[:, 5].astype(np.float64))
    a, i, j = np.nonzero(score >= conf_threshold)
    sig = _sigmoid(t[a, :, i, j].astype(np.float64))    # (M, fields)

    aw = np.array([p[0] for p in anchors], dtype=np.float64)[a]
    ah = np.array([p[1] for p in anchors], dtype=np.float64)[a]
    boxes = np.stack([(2.0 * sig[:, 0] - 0.5 + j) * s,
                      (2.0 * sig[:, 1] - 0.5 + i) * s,
                      (2.0 * sig[:, 2]) ** 2 * aw,
                      (2.0 * sig[:, 3]) ** 2 * ah], axis=1)
    keypoints = np.stack([((2.0 * sig[:, 6::3] - 0.5) * 4.0 - 1.5 + j[:, None]) * s,
                          ((2.0 * sig[:, 7::3] - 0.5) * 4.0 - 1.5 + i[:, None]) * s,
                          sig[:, 8::3]], axis=2)
    sided = np.all(boxes[:, 2:] != 0.0, axis=1)
    if not sided.all():         # copy only when a side underflowed
        a, i, j, boxes, keypoints = a[sided], i[sided], j[sided], boxes[sided], keypoints[sided]
    return Detections(boxes, score[a, i, j], keypoints)


def encode(box, keypoints, stride, anchor, cell):
    """Inverse of :func:`decode` for one target at a known cell and anchor,
    with objectness and class score 0.9.

    Returns the per-anchor logit vector for the (K, 3) ``keypoints``.
    Raises if the target is not representable from the given cell (offsets
    outside the decode range).
    """
    i, j = cell
    s = float(stride)
    kps = np.asarray(keypoints, dtype=np.float64)
    out = np.empty(5 + 1 + 3 * len(kps), dtype=np.float64)

    def inv(p, lo, hi, what):
        if not lo < p < hi:
            raise DomainError(f"{what} fraction {p} outside ({lo}, {hi})")
        return math.log(p / (1.0 - p))

    out[0] = inv((box[0] / s - j + 0.5) / 2.0, 0.0, 1.0, "center-x")
    out[1] = inv((box[1] / s - i + 0.5) / 2.0, 0.0, 1.0, "center-y")
    out[2] = inv(np.sqrt(box[2] / anchor[0]) / 2.0, 0.0, 1.0, "width")
    out[3] = inv(np.sqrt(box[3] / anchor[1]) / 2.0, 0.0, 1.0, "height")
    out[4] = out[5] = math.log(0.9 / (1.0 - 0.9))
    for k in range(len(kps)):
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
    cx, cy, w, h = box[..., 0], box[..., 1], box[..., 2], box[..., 3]
    return cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0


def box_iou(a, b):
    """Intersection over union of (cx, cy, w, h) boxes ``a`` (..., 4) and
    ``b`` (..., 4), pairwise over the broadcast leading axes.  Two boxes
    whose sides vanish next to their centres have no union; like disjoint
    boxes, their IoU is 0."""
    ax1, ay1, ax2, ay2 = _corners(np.asarray(a, dtype=np.float64))
    bx1, by1, bx2, by2 = _corners(np.asarray(b, dtype=np.float64))
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / np.where(union > 0.0, union, 1.0)


def nms(dets, iou_threshold):
    """Greedy suppression by descending score; ties keep input order.

    The score-sorted boxes are taken ``_NMS_BLOCK_ROWS`` at a time, and one
    :func:`box_iou` call gives the block's rows against every candidate
    still alive from the block on.  Within the block each surviving row
    drops the later rows whose IoU is not at most the threshold; every
    later candidate that a kept row of the block overlaps so is dropped
    too.  The kept rows come back in input order.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise DomainError(f"iou_threshold must be in (0, 1), got {iou_threshold}")
    order = np.argsort(-dets.scores, kind="stable")
    # the alive boxes, coordinate-major (4, n) so box_iou reads each
    # coordinate contiguously; column 0 is the best one left
    alive = np.ascontiguousarray(dets.boxes[order].T)
    kept = [order[:0]]                  # so that no boxes concatenate too
    while order.size:
        b = min(_NMS_BLOCK_ROWS, order.size)
        drop = ~(box_iou(alive[:, :b].T[:, None], alive.T[None]) <= iou_threshold)
        inner = np.triu(drop[:, :b], 1)         # row r drops block row c > r
        live = np.ones(b, dtype=bool)
        for r in np.flatnonzero(inner.any(axis=1)).tolist():
            if live[r]:
                live &= ~inner[r]
        kept.append(order[:b][live])
        rest = ~drop[live, b:].any(axis=0)
        order, alive = order[b:][rest], alive[:, b:][:, rest]
    return dets[np.sort(np.concatenate(kept))]


# ---------------------------------------------------------------------------
# keypoint similarity and evaluation
# ---------------------------------------------------------------------------

def oks(pred, gts, sigmas=None):
    """Similarity of predicted keypoints (..., K, 3) to each annotated
    instance of the list ``gts``, as an array (..., G); one instance's
    column is ``oks(pred, [gt])[..., 0]``.

    The squared distances, scales and exponentials are computed once over
    (..., G, K); each instance's column is then the mean over its visible
    keypoints of a (..., n_visible) array, so it sums in the order a
    one-instance table does.  A distance past the float range gives a term
    of exactly 0, the limit of the exponential.
    """
    pred = np.asarray(pred, dtype=np.float64)
    if not gts:
        return np.empty(pred.shape[:-2] + (0,))
    sigmas = sigmas or KeypointSigmas()
    visible = [gt.visible for gt in gts]
    for gt, vis in zip(gts, visible):
        if not vis.any():
            raise DomainError("ground-truth instance has no visible keypoints")
        if pred.ndim < 2 or pred.shape[-2:] != gt.keypoints.shape:
            raise ShapeError("prediction and ground truth disagree on keypoint count")
    k = pred.shape[-2]
    if sigmas.falloff.shape != (k,):
        raise ShapeError(f"{sigmas.falloff.size} falloff constants for {k} keypoints")
    gt_kps = np.stack([gt.keypoints for gt in gts])                # (G, K, 3)
    with np.errstate(over="ignore"):
        scale = 2.0 * np.array([gt.area for gt in gts])[:, None] * sigmas.falloff ** 2
        if not np.all(np.isfinite(scale) & (scale > 0)):
            raise DomainError("OKS scale 2 * area * falloff^2 must be finite and > 0")
        d2 = ((pred[..., None, :, 0] - gt_kps[:, :, 0]) ** 2
              + (pred[..., None, :, 1] - gt_kps[:, :, 1]) ** 2)
        terms = np.exp(-d2 / scale)
    out = np.empty(terms.shape[:-1])
    for g, vis in enumerate(visible):
        out[..., g] = terms[..., g, :][..., vis].mean(axis=-1)
    return out


def _greedy_match(table, ignore):
    """Greedy matching of every image at every OKS threshold at once, one
    detection rank at a time.

    ``table`` (I, D, G) holds the OKS of each image's detections, ranked by
    descending score, against its ground truths; NaN pads both.  ``ignore``
    (I, G) marks the ignored ground truths.  A detection takes the untaken
    gt with the highest OKS at or above the threshold, counted ones before
    ignored ones, a tie going to the later gt.  Returns flags (I, T, D):
    1 = matched a counted gt, 0 = unmatched, -1 = matched an ignored gt.
    """
    n_img, n_det, n_gt = table.shape
    thresholds = OKS_THRESHOLDS[:, None]
    taken = np.zeros((n_img, len(OKS_THRESHOLDS), n_gt), dtype=bool)
    flags = np.zeros((n_img, len(OKS_THRESHOLDS), n_det), dtype=np.int8)
    img, thr = np.ogrid[:n_img, :len(OKS_THRESHOLDS)]
    for r in range(n_det):
        row = table[:, None, r]                         # (I, 1, G)
        open_ = (row >= thresholds) & ~taken            # (I, T, G)
        best, hit = [], []
        for group in (open_ & ~ignore[:, None], open_ & ignore[:, None]):
            # argmax over the reversed gt axis: the last of equal maxima
            value = np.where(group, row, -np.inf)[..., ::-1]
            best.append(n_gt - 1 - value.argmax(axis=-1))
            hit.append(group.any(axis=-1))
        counted, ignored = hit
        taken[img, thr, np.where(counted, *best)] |= counted | ignored
        flags[:, :, r] = np.where(counted, 1, np.where(ignored, -1, 0))
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
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_POINTS, side="left")
    interp = np.where(idx < len(precision),
                      precision[np.minimum(idx, len(precision) - 1)], 0.0)
    return float(np.mean(interp))


def _score_images(preds_by_image, gts_by_image, sigmas):
    """Images by id, padded to the most detections and ground truths any of
    them has: each image's ``MAX_DETS`` best detections (best first, ties
    in input order) and its ground truths with visible keypoints.  Returns
    the scores and areas of the detections (I, D), the areas of the ground
    truths (I, G), masks of the real slots of both, and the OKS matrix
    (I, D, G), NaN in the padding."""
    images = sorted(set(preds_by_image) | set(gts_by_image))
    dets, gts = [], []
    for img in images:
        d = preds_by_image.get(img)
        dets.append(d[np.argsort(-d.scores, kind="stable")[:MAX_DETS]]
                    if d is not None and len(d) else None)
        gts.append([g for g in gts_by_image.get(img, []) if np.any(g.visible)])
    n_det = max([len(d) for d in dets if d is not None], default=0)
    n_gt = max([1] + [len(g) for g in gts])     # one slot at least: an argmax axis
    scores = np.zeros((len(images), n_det))
    det_area = np.zeros((len(images), n_det))
    det_real = np.zeros((len(images), n_det), dtype=bool)
    gt_area = np.zeros((len(images), n_gt))
    gt_real = np.zeros((len(images), n_gt), dtype=bool)
    table = np.full((len(images), n_det, n_gt), np.nan)
    for i, (d, g) in enumerate(zip(dets, gts)):
        gt_area[i, :len(g)] = [inst.area for inst in g]
        gt_real[i, :len(g)] = True
        if d is None:
            continue
        scores[i, :len(d)] = d.scores
        det_area[i, :len(d)] = d.area
        det_real[i, :len(d)] = True
        if g:
            table[i, :len(d), :len(g)] = oks(d.keypoints, g, sigmas)
    return scores, det_area, det_real, gt_area, gt_real, table


def _evaluate_pass(tables, area_range=None):
    """One matching/accumulation pass over the :func:`_score_images`
    arrays; optionally restricted by area."""
    scores, det_area, det_real, gt_area, gt_real, table = tables
    if area_range is None:
        counted = gt_real
        det_out = np.zeros(det_area.shape, dtype=bool)
    else:
        lo, hi = area_range
        counted = gt_real & (lo < gt_area) & (gt_area <= hi)
        det_out = ~((lo < det_area) & (det_area <= hi))
    n_gt = int(np.count_nonzero(counted))
    flags = _greedy_match(table, ~counted)
    flags[(flags == 0) & det_out[:, None]] = -1   # unmatched out-of-range detection
    # (T, N): every image's detections in image order, then ranked globally
    order = np.argsort(-scores[det_real], kind="stable")
    flags = flags.transpose(1, 0, 2)[:, det_real][:, order]

    ap = [_average_precision(f, n_gt) for f in flags]
    rec = [float(np.sum(f == 1)) / n_gt if n_gt else 0.0 for f in flags]
    return np.asarray(ap), np.asarray(rec)


def evaluate(preds_by_image, gts_by_image, sigmas=None):
    """AP/AR protocol over per-image detections and annotations.

    Ground-truth instances without visible keypoints are skipped.  Detections
    are capped at ``MAX_DETS`` per image by score.  Returns AP (mean over
    thresholds 0.50..0.95), AP50, AP75, APL (gt area > 96^2) and AR (mean
    recall over the thresholds at the detection cap).
    """
    sigmas = sigmas or KeypointSigmas()
    tables = _score_images(preds_by_image, gts_by_image, sigmas)
    ap, recall = _evaluate_pass(tables)
    ap_large, _ = _evaluate_pass(tables, area_range=(LARGE_AREA, float("inf")))
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

def _malformed(what, exc):
    reason = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
    return FormatError(f"{what}: {reason}")


def _image_id(value):
    """An image id as read from JSON: an integer, and not ``true``/``false``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"image_id must be an integer, got {value!r}")
    return value


def _bbox_area(bbox):
    """w * h of a ground-truth (x, y, w, h) bbox of four finite numbers."""
    try:
        x, y, w, h = (float(v) for v in bbox)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"bbox must be 4 finite numbers, got {bbox!r}") from None
    if not all(map(math.isfinite, (x, y, w, h))):
        raise ValueError(f"bbox must be 4 finite numbers, got {bbox!r}")
    return w * h


def read_ground_truth(path):
    """Read a COCO keypoint annotation file into per-image instances."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    out = {}
    try:
        annotations = data["annotations"] if isinstance(data, dict) else data
    except KeyError as exc:
        raise _malformed(str(path), exc) from None
    if not isinstance(annotations, list):
        raise FormatError(f"{path}: annotations must be a JSON array")
    for n, ann in enumerate(annotations):
        try:
            kps = np.asarray(ann["keypoints"], dtype=np.float64).reshape(-1, 3)
            if "area" in ann:
                area = float(ann["area"])
            else:
                area = max(_bbox_area(ann.get("bbox", (0, 0, 0, 0))), 1.0)
            image_id = _image_id(ann["image_id"])
            if not np.isfinite(kps).all():
                raise ValueError("keypoints must be finite")
            if not (math.isfinite(area) and area > 0):
                raise ValueError(f"area must be > 0 and finite, got {area}")
        except (KeyError, TypeError, ValueError, IndexError, AttributeError,
                OverflowError) as exc:
            raise _malformed(f"annotation {n}", exc) from None
        out.setdefault(image_id, []).append(
            GroundTruthInstance(keypoints=kps, area=area))
    return out


class _BadEntry(Exception):
    """``(position, error)`` of the first entry of one image's results that
    fails, by its position among that image's entries."""


def _image_arrays(keypoints, boxes):
    """One image's results entries as keypoints (m, K, 3) and boxes (m, 4).

    ``keypoints`` holds the entries' parsed JSON values, ``boxes`` their
    (cx, cy, w, h) or None where the entry has no bbox (it gets the extent
    of its keypoints, each side at least 1 px).  Raises :class:`_BadEntry`
    for the first entry whose keypoints are not finite x, y, confidence
    triples, or are empty with no bbox.  Returns keypoints None when the
    entries hold different numbers of triples.
    """
    no_box = np.array([b is None for b in boxes])

    def check(rows, start):
        finite = np.isfinite(rows).all(axis=(1, 2))
        bad = ~finite | (no_box[start:start + len(rows)] & (rows.shape[1] == 0))
        if bad.any():
            pos = int(np.argmax(bad))
            raise _BadEntry(start + pos, ValueError(
                "score and keypoints must be finite" if not finite[pos]
                else "keypoints are empty and there is no bbox"))

    try:
        kps = np.array(keypoints, dtype=np.float64).reshape(len(keypoints), -1, 3)
    except (TypeError, ValueError, OverflowError):
        # ragged, nested or not numbers: the entries one by one, in order
        parts = []
        for pos, k in enumerate(keypoints):
            try:
                parts.append(np.asarray(k, dtype=np.float64).reshape(-1, 3)[None])
            except (TypeError, ValueError, OverflowError) as exc:
                raise _BadEntry(pos, exc) from None
            check(parts[-1], pos)
        if len({p.shape for p in parts}) > 1:
            return None, None
        kps = np.concatenate(parts)
    check(kps, 0)
    out = np.empty((len(boxes), 4))
    if not no_box.all():
        out[~no_box] = [b for b in boxes if b is not None]
    if no_box.any():
        xy = kps[no_box, :, :2]
        lo = xy.min(axis=1)
        # an extent past the float range is an infinite side
        with np.errstate(over="ignore"):
            side = np.maximum(xy.max(axis=1) - lo, 1.0)
        out[no_box] = np.concatenate([lo + side / 2.0, side], axis=1)
    return kps, out


def read_results(path):
    """Read a COCO keypoint results array into per-image :class:`Detections`,
    rows in file order.

    An entry without a ``bbox`` gets the extent of its keypoints, each side
    at least 1 px.  Raises :class:`FormatError`, naming the first bad entry,
    when the file is not an array of objects with ``image_id``, ``score``
    and ``keypoints`` (x, y, confidence triples, one count per image), all
    finite.  One Python pass reads each entry's scalar fields; each image's
    keypoints are then checked and converted as one array.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise FormatError(f"{path}: results must be a JSON array")
    rows = {}           # image id -> (entry index, keypoints, score, box) per entry
    first_bad = None
    for n, item in enumerate(data):
        try:
            kps = item["keypoints"]
            score = float(item["score"])
            if not math.isfinite(score):
                raise ValueError("score and keypoints must be finite")
            if "bbox" in item:
                x, y, w, h = (float(v) for v in item["bbox"])
                if not all(map(math.isfinite, (x, y, w, h))):
                    raise ValueError("bbox must be finite")
                box = (x + w / 2.0, y + h / 2.0, w, h)
            else:
                box = None
            image_id = _image_id(item["image_id"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            first_bad = (n, exc)    # later entries cannot come first
            break
        rows.setdefault(image_id, []).append((n, kps, score, box))
    arrays = {}
    for image_id, entries in rows.items():
        idx, kps, scores, boxes = zip(*entries)
        try:
            arrays[image_id] = _image_arrays(kps, boxes) + (scores,)
        except _BadEntry as bad:
            pos, exc = bad.args
            if first_bad is None or idx[pos] < first_bad[0]:
                first_bad = (idx[pos], exc)
    if first_bad is not None:
        raise _malformed(f"results entry {first_bad[0]}", first_bad[1])
    out = {}
    for image_id, (kps, boxes, scores) in arrays.items():
        if kps is None:
            raise FormatError(f"results for image {image_id}: entries disagree "
                              "on the keypoint count")
        out[image_id] = Detections(boxes, scores, kps)
    return out


def write_results(dets_by_image, path):
    """Write detections as a COCO keypoint results array of category 1:
    images by ascending id, each image's rows in their order in its
    container.  The bytes are those of one ``json.dumps`` of the whole
    array; the C encoder runs on ``_WRITE_BLOCK_ROWS`` rows at a time, so
    the memory it takes does not grow with the output."""
    sep = ""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[")
        for image_id in sorted(dets_by_image):
            dets = dets_by_image[image_id]
            cx, cy, w, h = dets.boxes.T
            bbox = np.stack([cx - w / 2.0, cy - h / 2.0, w, h], axis=1)
            keypoints = dets.keypoints.reshape(len(dets), dets.keypoints.shape[1] * 3)
            area = dets.area
            for r0 in range(0, len(dets), _WRITE_BLOCK_ROWS):
                rows = slice(r0, r0 + _WRITE_BLOCK_ROWS)
                items = [{"image_id": int(image_id), "category_id": 1,
                          "bbox": b, "score": s, "area": a, "keypoints": k}
                         for b, s, a, k in zip(bbox[rows].tolist(), dets.scores[rows].tolist(),
                                               area[rows].tolist(), keypoints[rows].tolist())]
                fh.write(sep + json.dumps(items)[1:-1])
                sep = ", "
        fh.write("]")
