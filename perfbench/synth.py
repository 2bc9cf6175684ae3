"""Seeded inputs: raw f32 frames and synthetic COCO-style keypoint files.

Every generator takes a ``numpy.random.Generator``; the same seed gives the
same bytes.
"""

from __future__ import annotations

import json

import numpy as np

from refcheck import FALLOFF

# Unit-box skeleton (x, y) for the 17 COCO keypoints, nose .. ankles.
SKELETON = np.array([
    [0.50, 0.08], [0.46, 0.06], [0.54, 0.06], [0.42, 0.08], [0.58, 0.08],
    [0.35, 0.22], [0.65, 0.22], [0.28, 0.38], [0.72, 0.38], [0.24, 0.52],
    [0.76, 0.52], [0.40, 0.55], [0.60, 0.55], [0.39, 0.76], [0.61, 0.76],
    [0.38, 0.96], [0.62, 0.96]])

IMAGE_W, IMAGE_H = 640.0, 480.0


def write_frame(rng, h, w, path):
    """One (1, 3, h, w) frame of standard-normal little-endian f32."""
    rng.standard_normal((1, 3, h, w), dtype=np.float32).astype("<f4").tofile(path)
    return f"1,3,{h},{w}"


def _person(rng):
    """Ground-truth keypoints (17, 3), bbox and segment area of one person."""
    side = float(np.exp(rng.uniform(np.log(40.0), np.log(330.0))))
    w, h = side * rng.uniform(0.45, 0.7), side
    x0, y0 = rng.uniform(0.0, IMAGE_W - w), rng.uniform(0.0, IMAGE_H - h)
    kps = np.zeros((17, 3))
    kps[:, 0] = x0 + (SKELETON[:, 0] + rng.normal(0, 0.03, 17)) * w
    kps[:, 1] = y0 + (SKELETON[:, 1] + rng.normal(0, 0.03, 17)) * h
    kps[:, 2] = np.where(rng.random(17) < 0.15, 0, rng.choice([1, 2], 17))
    if rng.random() < 0.05:
        kps[:, :] = 0.0          # annotated person with no visible keypoints
    elif not np.any(kps[:, 2] > 0):
        kps[0, 2] = 2
    area = w * h * rng.uniform(0.5, 0.8)
    return kps, [x0, y0, w, h], area


def _prediction(rng, kps, area, target_oks):
    """Keypoints displaced so the OKS against (kps, area) is near target."""
    radius = np.sqrt(-2.0 * area * FALLOFF ** 2 * np.log(target_oks))
    radius *= rng.uniform(0.85, 1.15, 17)
    angle = rng.uniform(0.0, 2.0 * np.pi, 17)
    out = np.empty((17, 3))
    out[:, 0] = kps[:, 0] + radius * np.cos(angle)
    out[:, 1] = kps[:, 1] + radius * np.sin(angle)
    out[:, 2] = rng.uniform(0.05, 1.0, 17)
    return out


def write_coco_pair(rng, n_images, gt_path, pred_path):
    """A ground-truth file and a results file over ``n_images`` images.

    Persons span about 40 to 330 px in height, so some are below 96^2 area
    and APL differs from AP.  Each gets three predictions at graded OKS
    (about 0.75-0.97, 0.5-0.85, 0.3-0.6) plus up to two stray detections;
    one image in eight holds nine persons, so more than 20 predictions and
    the per-image detection cap binds.  Half the predictions carry a bbox,
    the rest leave the area to the keypoint extent.  Person and stray counts
    follow the image id, not the seed, so every seed makes the same work.
    """
    annotations, results = [], []
    for image_id in range(1, n_images + 1):
        n_persons = 9 if image_id % 8 == 0 else 1 + image_id % 6
        for _ in range(n_persons):
            kps, bbox, area = _person(rng)
            annotations.append({"image_id": image_id, "category_id": 1, "iscrowd": 0,
                                "keypoints": kps.reshape(-1).tolist(),
                                "num_keypoints": int(np.sum(kps[:, 2] > 0)),
                                "bbox": bbox, "area": area})
            if not np.any(kps[:, 2] > 0):
                continue
            for lo, hi, s_lo, s_hi in ((0.75, 0.97, 0.5, 1.0), (0.5, 0.85, 0.2, 0.9),
                                       (0.3, 0.6, 0.02, 0.6)):
                pred = _prediction(rng, kps, area, rng.uniform(lo, hi))
                item = {"image_id": image_id, "category_id": 1,
                        "keypoints": pred.reshape(-1).tolist(),
                        "score": float(rng.uniform(s_lo, s_hi))}
                if rng.random() < 0.5:
                    x0, y0 = pred[:, 0].min(), pred[:, 1].min()
                    item["bbox"] = [x0, y0, pred[:, 0].max() - x0 + 2.0,
                                    pred[:, 1].max() - y0 + 2.0]
                results.append(item)
        for _ in range(image_id % 3):
            kps, _, area = _person(rng)
            stray = _prediction(rng, kps, area, 0.9)
            results.append({"image_id": image_id, "category_id": 1,
                            "keypoints": stray.reshape(-1).tolist(),
                            "score": float(rng.uniform(0.01, 0.7))})
    with open(gt_path, "w", encoding="utf-8") as fh:
        json.dump({"images": [{"id": i} for i in range(1, n_images + 1)],
                   "annotations": annotations,
                   "categories": [{"id": 1, "name": "person"}]}, fh)
    with open(pred_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
