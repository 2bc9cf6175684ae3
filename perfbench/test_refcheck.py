"""Closed-form tests of the benchmark's references and output checks.

    python3 -m pytest perfbench/test_refcheck.py -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refcheck  # noqa: E402
from refcheck import CheckError  # noqa: E402

ANCHORS = [[(19.0, 27.0), (44.0, 40.0), (38.0, 94.0)],
           [(96.0, 68.0), (86.0, 152.0), (180.0, 137.0)]]
STRIDES = [8, 16]


def results_json(rows, image_id=1):
    """Reference rows in the layout `drsinet forward` writes."""
    return json.dumps([{"image_id": image_id, "category_id": 1,
                        "bbox": [float(v) for v in r[1:5]], "score": float(r[0]),
                        "area": float(r[5]), "keypoints": [float(v) for v in r[6:]]}
                       for r in rows])


def random_reference(seed=0):
    rng = np.random.default_rng(seed)
    heads = [rng.normal(0.0, 1.5, (1, 3 * 57, 8, 8)), rng.normal(0.0, 1.5, (1, 3 * 57, 4, 4))]
    return refcheck.reference_detections(heads, STRIDES, ANCHORS, 0.25, 0.65, 17)


def person(x, y, side, visible=2):
    kps = np.zeros((17, 3))
    kps[:, 0] = x + np.linspace(0.2, 0.8, 17) * side * 0.5
    kps[:, 1] = y + np.linspace(0.05, 0.95, 17) * side
    kps[:, 2] = visible
    return kps


class TestDecodeAndNms:
    def test_zero_logits_decode_to_cell_centres(self):
        heads = [np.zeros((1, 3 * 57, 2, 3))]
        cand = refcheck.decode_heads(heads, [8], ANCHORS[:1], 0.25, 17)
        assert len(cand["score"]) == 18
        assert np.all(cand["score"] == 0.25)
        # anchor 0, row 1, col 2 is candidate 5: centre ((2 + 0.5) * 8, (1 + 0.5) * 8)
        assert cand["box"][5].tolist() == [20.0, 12.0, 19.0, 27.0]
        assert np.allclose(cand["kps"][5][:, :2], [20.0, 12.0])
        assert np.all(cand["kps"][:, :, 2] == 0.5)

    def test_threshold_above_every_score_keeps_nothing(self):
        cand = refcheck.decode_heads([np.zeros((1, 3 * 57, 2, 2))], [8], ANCHORS[:1], 0.26, 17)
        assert len(cand["score"]) == 0

    def test_nms_identical_disjoint_and_ties(self):
        box = np.array([[10, 10, 4, 4], [10, 10, 4, 4], [50, 50, 4, 4], [90, 90, 4, 4]], float)
        assert refcheck.greedy_nms(box, np.array([0.5, 0.9, 0.7, 0.7]), 0.5).tolist() == [1, 2, 3]
        assert refcheck.greedy_nms(box[:2], np.array([0.6, 0.6]), 0.5).tolist() == [0]


class TestDetectionCheck:
    def test_exact_file_passes_and_prefix_passes(self):
        rows = random_reference()
        assert len(rows) > 25
        refcheck.check_detections(results_json(rows), rows, image_id=1)
        refcheck.check_detections(results_json(rows[:25][::-1]), rows, image_id=1)

    @staticmethod
    def shifted(rows, row, col, delta):
        out = rows.copy()
        out[row, col] += delta
        return out

    @pytest.mark.parametrize("corrupt", [
        lambda r: TestDetectionCheck.shifted(r, 3, 7, 1e-3),     # a keypoint x
        lambda r: TestDetectionCheck.shifted(r, 2, 5, 1.0),      # an area
        lambda r: r[1:],
        lambda r: r[:10],
        lambda r: np.vstack([r, r[:1]]),
    ], ids=["moved_keypoint", "wrong_area", "dropped_best", "capped_below_20", "duplicate"])
    def test_corrupted_detections_are_caught(self, corrupt):
        rows = random_reference()
        with pytest.raises(CheckError):
            refcheck.check_detections(results_json(corrupt(rows)), rows, image_id=1)

    def test_wrong_image_id_and_non_json_are_caught(self):
        rows = random_reference()
        with pytest.raises(CheckError):
            refcheck.check_detections(results_json(rows, image_id=2), rows, image_id=1)
        with pytest.raises(CheckError):
            refcheck.check_detections(b"[{", rows, image_id=1)


class TestEvaluator:
    def test_oks_of_e_minus_one_is_exact(self):
        gt = person(100.0, 50.0, 200.0)
        area = 5000.0
        pred = gt.copy()
        pred[:, 0] += np.sqrt(2.0 * area) * refcheck.FALLOFF
        value = refcheck.oks_matrix(pred[None], gt[None], np.array([area]))[0, 0]
        assert value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_invisible_keypoints_do_not_count(self):
        gt = person(100.0, 50.0, 200.0)
        gt[:8, 2] = 0
        pred = gt.copy()
        pred[:8, 0] += 1e6
        assert refcheck.oks_matrix(pred[None], gt[None], np.array([5000.0]))[0, 0] == 1.0

    def test_exact_predictions_give_ap_and_ar_of_one(self):
        gts, dets = {}, {}
        for img in range(1, 6):
            for k, side in enumerate((60.0, 150.0, 300.0)):
                kps = person(20.0 + 100 * k, 10.0, side)
                area = side * side * 0.3
                gts.setdefault(img, []).append((kps, area))
                dets.setdefault(img, []).append((kps.copy(), 0.1 * k + 0.01 * img, area))
        m = refcheck.coco_keypoint_metrics(gts, dets)
        assert m == {"AP": 1.0, "AP50": 1.0, "AP75": 1.0, "APL": 1.0, "AR": 1.0}

    def test_single_prediction_between_thresholds(self):
        gt = person(100.0, 50.0, 200.0)
        area = 8000.0
        pred = gt.copy()
        pred[:, 0] += np.sqrt(-2.0 * area * np.log(0.72)) * refcheck.FALLOFF
        m = refcheck.coco_keypoint_metrics({1: [(gt, area)]}, {1: [(pred, 0.9, area)]})
        # OKS 0.72 matches at thresholds 0.50 .. 0.70, five of ten
        assert m["AP"] == pytest.approx(0.5) and m["AR"] == pytest.approx(0.5)
        assert (m["AP50"], m["AP75"], m["APL"]) == (1.0, 0.0, 0.0)

    def test_detection_cap_of_twenty(self):
        gts = {1: [(person(10.0 * k, 10.0, 120.0), 9000.0) for k in range(21)]}
        dets = {1: [(g[0].copy(), 1.0 - 0.01 * k, 9000.0) for k, g in enumerate(gts[1])]}
        assert refcheck.coco_keypoint_metrics(gts, dets)["AR"] == pytest.approx(20 / 21)


class TestMetricCheck:
    REF = {"AP": 0.56781, "AP50": 0.87, "AP75": 0.75349, "APL": 0.6, "AR": 0.77514}
    GOOD = "AP 0.5678\nAP50 0.8700\nAP75 0.7535\nAPL 0.6000\nAR 0.7751\n"

    def test_printed_lines_pass(self):
        refcheck.check_metrics(self.GOOD, self.REF)

    @pytest.mark.parametrize("text", [
        GOOD.replace("AP 0.5678", "AP 0.5680"),
        GOOD.replace("APL 0.6000\n", ""),
        GOOD.replace("AR 0.7751", "AR nan?"),
    ], ids=["off_by_two_units", "missing_line", "unreadable"])
    def test_corrupted_metric_lines_are_caught(self, text):
        with pytest.raises(CheckError):
            refcheck.check_metrics(text, self.REF)
