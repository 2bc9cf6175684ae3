"""Command-line surface: subcommands, formats and exit codes."""

import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from drsinet import cli
from drsinet import tensor as T
from drsinet.cli import main
from drsinet.decode import DEFAULT_FALLOFF
from drsinet.network import Model, ModelConfig, build_model
from drsinet.profiler import profile, save_weights


@pytest.fixture
def mini_cfg_file(tmp_path):
    cfg = dict(variant="custom", width_mult=0.005, depth_mult=0.2,
               cbam_reduction=4, neck="pan",
               note="placeholder anchors, not dataset-derived")
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(cfg))
    return path


class TestProfileCommand:
    def test_csv_totals_line(self, mini_cfg_file, capsys):
        assert main(["profile", "--config", str(mini_cfg_file),
                     "--input-size", "128"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        report = profile(ModelConfig.from_file(mini_cfg_file), 128)
        last = lines[-1].split(",")
        assert last[0] == "total"
        assert int(last[-2]) == report.total_params
        assert int(last[-1]) == report.total_macs

    def test_json_format_line_delimited(self, mini_cfg_file, capsys):
        assert main(["profile", "--config", str(mini_cfg_file),
                     "--input-size", "128", "--format", "json"]) == 0
        lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert all("name" in ln for ln in lines[:-1])
        assert lines[-1]["totals"]["params"] > 0
        report = profile(ModelConfig.from_file(mini_cfg_file), 128)
        assert lines[-1]["totals"]["macs"] == report.total_macs

    def test_bad_input_size(self, mini_cfg_file, capsys):
        assert main(["profile", "--config", str(mini_cfg_file),
                     "--input-size", "100"]) == 1

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        assert main(["profile", "--config", str(tmp_path / "none.json"),
                     "--input-size", "128"]) == 2

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["profile", "--config", str(path),
                     "--input-size", "128"]) == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"variant": "s", "depht_mult": 1.0}))
        assert main(["profile", "--config", str(path),
                     "--input-size", "128"]) == 1


class TestTraceCommand:
    def test_lists_pyramid_rows(self, mini_cfg_file, capsys):
        assert main(["trace", "--config", str(mini_cfg_file),
                     "--input-size", "128"]) == 0
        out = capsys.readouterr().out
        for marker in ("backbone.P3", "backbone.P6", "neck.N6", "heads.3"):
            assert marker in out


class TestArgumentErrors:
    def test_unknown_flag_exit_1(self, mini_cfg_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["profile", "--config", str(mini_cfg_file),
                  "--input-size", "128", "--bogus"])
        assert err.value.code == 1

    def test_unknown_command_exit_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1


class TestForwardCommand:
    def test_forward_round_trip(self, mini_cfg_file, tmp_path, rng, capsys):
        cfg = ModelConfig.from_file(mini_cfg_file)
        model = build_model(cfg, seed=0)
        weights = tmp_path / "w.drsi"
        save_weights(model, weights)
        image = rng.uniform(0, 1, (1, 3, 64, 64)).astype("<f4")
        image_path = tmp_path / "img.f32"
        image.tofile(image_path)
        out_path = tmp_path / "dets.json"
        assert main(["forward", "--config", str(mini_cfg_file),
                     "--weights", str(weights), "--image", str(image_path),
                     "--shape", "1,3,64,64", "--out", str(out_path),
                     "--conf", "0.2", "--image-id", "9"]) == 0
        dets = json.loads(out_path.read_text())
        assert isinstance(dets, list) and dets
        assert all(d["image_id"] == 9 for d in dets)
        assert all(len(d["keypoints"]) == 51 for d in dets)

    def test_frame_frozen_without_a_copy(self, mini_cfg_file, tmp_path, rng, monkeypatch):
        """The model reads the array the image file was read into, reshaped
        and frozen, so the forward holds one copy of the frame."""
        weights = tmp_path / "w.drsi"
        save_weights(build_model(ModelConfig.from_file(mini_cfg_file), seed=0), weights)
        image = rng.uniform(0, 1, (1, 3, 64, 64)).astype("<f4")
        image.tofile(tmp_path / "img.f32")
        seen = []
        forward = Model.forward
        monkeypatch.setattr(Model, "forward", lambda self, x: seen.append(x) or forward(self, x))
        assert main(["forward", "--config", str(mini_cfg_file), "--weights", str(weights),
                     "--image", str(tmp_path / "img.f32"), "--shape", "1,3,64,64",
                     "--out", str(tmp_path / "dets.json")]) == 0
        frame = seen[0].numpy()
        assert frame.base is not None and frame.base.shape == (image.size,)
        assert not frame.flags.writeable and frame.tobytes() == image.tobytes()

    def test_no_detection_writes_empty_array(self, mini_cfg_file, tmp_path, rng):
        cfg = ModelConfig.from_file(mini_cfg_file)
        weights = tmp_path / "w.drsi"
        save_weights(build_model(cfg, seed=0), weights)
        image_path = tmp_path / "img.f32"
        rng.uniform(0, 1, (1, 3, 64, 64)).astype("<f4").tofile(image_path)
        out_path = tmp_path / "dets.json"
        assert main(["forward", "--config", str(mini_cfg_file),
                     "--weights", str(weights), "--image", str(image_path),
                     "--shape", "1,3,64,64", "--out", str(out_path),
                     "--conf", "1.0"]) == 0
        assert out_path.read_text() == "[]"

    def test_wrong_size_image(self, mini_cfg_file, tmp_path, rng):
        cfg = ModelConfig.from_file(mini_cfg_file)
        model = build_model(cfg, seed=0)
        weights = tmp_path / "w.drsi"
        save_weights(model, weights)
        image_path = tmp_path / "img.f32"
        rng.uniform(0, 1, 10).astype("<f4").tofile(image_path)
        assert main(["forward", "--config", str(mini_cfg_file),
                     "--weights", str(weights), "--image", str(image_path),
                     "--shape", "1,3,64,64", "--out",
                     str(tmp_path / "o.json")]) == 1

    def test_oversized_image_not_read(self, mini_cfg_file, tmp_path, capsys):
        """A 1 GiB (sparse) image file for a 64x64 frame is rejected from its
        size, before any of it is read."""
        image_path = tmp_path / "img.f32"
        with open(image_path, "wb") as fh:
            fh.truncate(1 << 30)
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["forward", "--config", str(mini_cfg_file), "--weights",
                         str(tmp_path / "w.drsi"), "--image", str(image_path),
                         "--shape", "1,3,64,64", "--out", str(tmp_path / "o.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1 and "Traceback" not in err
        assert f"holds {1 << 30} bytes, shape needs 12288 floats" in err
        assert peak < (1 << 30) // 64

    def test_batch_above_one_rejected_before_build(self, mini_cfg_file, tmp_path,
                                                    rng, capsys, monkeypatch):
        weights = tmp_path / "w.drsi"
        save_weights(build_model(ModelConfig.from_file(mini_cfg_file), seed=0), weights)
        image_path = tmp_path / "img.f32"
        rng.uniform(0, 1, (2, 3, 64, 64)).astype("<f4").tofile(image_path)

        def no_build(*args, **kwargs):
            raise AssertionError("model built for a rejected --shape")
        monkeypatch.setattr(cli, "Model", no_build)
        capsys.readouterr()
        assert main(["forward", "--config", str(mini_cfg_file),
                     "--weights", str(weights), "--image", str(image_path),
                     "--shape", "2,3,64,64", "--out",
                     str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "batch must be 1, got 2" in err


class TestEvalCommand:
    def test_fixture_prints_ap(self, tmp_path, capsys):
        # one gt, one prediction with similarity strictly inside (0.50, 0.55):
        # a hit at the first threshold only, so AP = 0.1
        kps = [50.0, 50.0, 2.0] + [0.0] * 48
        gt = {"annotations": [{"image_id": 1, "category_id": 1,
                               "keypoints": kps, "area": 400.0,
                               "bbox": [40.0, 40.0, 20.0, 20.0]}]}
        h0 = DEFAULT_FALLOFF[0]
        d = math.sqrt(-2.0 * 400.0 * h0 * h0 * math.log(0.52))
        pred_kps = [50.0 + d, 50.0, 0.9] + [0.0, 0.0, 0.9] * 16
        pred = [{"image_id": 1, "category_id": 1, "keypoints": pred_kps,
                 "score": 0.9, "bbox": [40.0, 40.0, 20.0, 20.0]}]
        gt_path = tmp_path / "gt.json"
        pred_path = tmp_path / "pred.json"
        gt_path.write_text(json.dumps(gt))
        pred_path.write_text(json.dumps(pred))
        assert main(["eval", "--gt", str(gt_path), "--pred", str(pred_path)]) == 0
        out = capsys.readouterr().out
        assert "AP 0.1000" in out
        assert "AP50 1.0000" in out
        assert "AP75 0.0000" in out

    @pytest.mark.parametrize("area", ["0", "-5", "NaN"])
    def test_non_positive_area_rejected(self, area, tmp_path, capsys):
        kps = [50.0, 50.0, 2.0] + [0.0] * 48
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(
            '{"annotations": [{"image_id": 1, "category_id": 1, "keypoints": '
            + json.dumps(kps) + ', "area": ' + area + '}]}')
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps([{"image_id": 1, "category_id": 1,
                                          "keypoints": kps, "score": 0.9}]))
        assert main(["eval", "--gt", str(gt_path), "--pred", str(pred_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "area must be > 0" in err

    def test_custom_sigmas_file(self, tmp_path, capsys):
        kps = [50.0, 50.0, 2.0] + [0.0] * 48
        gt = {"annotations": [{"image_id": 1, "category_id": 1,
                               "keypoints": kps, "area": 400.0,
                               "bbox": [40.0, 40.0, 20.0, 20.0]}]}
        pred = [{"image_id": 1, "category_id": 1, "keypoints": kps[:2] + [0.9] + kps[3:],
                 "score": 0.9, "bbox": [40.0, 40.0, 20.0, 20.0]}]
        sig = [0.1] * 17
        paths = {}
        for name, payload in [("gt", gt), ("pred", pred), ("sig", sig)]:
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(payload))
            paths[name] = str(p)
        assert main(["eval", "--gt", paths["gt"], "--pred", paths["pred"],
                     "--sigmas", paths["sig"]]) == 0
        assert "AP 1.0000" in capsys.readouterr().out

    def test_bbox_unread_when_area_given(self, tmp_path, capsys):
        """An annotation with an area needs no bbox, so a two-value one is
        not read: the scores equal those of the same annotation without it."""
        short_box = json.dumps({"annotations": [{"image_id": 1, "keypoints": _GT_KPS,
                                                 "area": 400.0, "bbox": [1.0, 2.0]}]})
        (tmp_path / "pred.json").write_text(_GOOD_PRED)
        outs = []
        for gt in (short_box, _GOOD_GT):
            (tmp_path / "gt.json").write_text(gt)
            assert main(["eval", "--gt", str(tmp_path / "gt.json"),
                         "--pred", str(tmp_path / "pred.json")]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            outs.append(out)
        assert outs[0] == outs[1] and "AP 1.0000" in outs[0]

    @pytest.mark.parametrize("entry, ap", [
        # the distance overflows: the OKS is its limit, 0
        ({"keypoints": [1e308, 50.0, 0.9] * 17}, "0.0000"),
        # so does the extent of the keypoints, the box of an entry without one
        ({"keypoints": [-1e308, 50.0, 0.9] + [1e308, 50.0, 0.9] * 16}, "0.0000"),
        # the box area overflows; the OKS does not use it
        ({"keypoints": [50.0, 50.0, 0.9] * 17, "bbox": [0.0, 0.0, 1e200, 1e200]}, "1.0000"),
    ])
    def test_sizes_past_float_range_print_no_warning(self, entry, ap, tmp_path, capsys):
        (tmp_path / "gt.json").write_text(_GOOD_GT)
        (tmp_path / "pred.json").write_text(
            json.dumps([{"image_id": 1, "score": 0.5, **entry}]))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["eval", "--gt", str(tmp_path / "gt.json"),
                         "--pred", str(tmp_path / "pred.json")])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert [str(w.message) for w in caught] == []
        assert f"AP {ap}" in out


_GT_KPS = [50.0, 50.0, 2.0] + [0.0] * 48
_PRED_KPS = [50.0, 50.0, 0.9] * 17


def _forward_case(image, *flags, archive=None, shape="1,3,64,64"):
    """A forward call; ``image`` None leaves the image file unwritten and
    ``archive`` bytes replace the weight archive."""
    def make(tmp_path, cfg_path, weights):
        image_path = tmp_path / "img.f32"
        if image is not None:
            image.astype("<f4").tofile(image_path)
        if archive is not None:
            weights.write_bytes(archive)
        return ["forward", "--config", str(cfg_path), "--weights", str(weights),
                "--image", str(image_path), "--shape", shape,
                "--out", str(tmp_path / "o.json"), *flags]
    return make


def _config_case(**fields):
    """A profile call on the miniature config with ``fields`` overridden."""
    def make(tmp_path, cfg_path, weights):
        cfg = json.loads(cfg_path.read_text())
        cfg.update(fields)
        (tmp_path / "bad.json").write_text(json.dumps(cfg))
        return ["profile", "--config", str(tmp_path / "bad.json"), "--input-size", "64"]
    return make


_GOOD_GT = json.dumps({"annotations": [{"image_id": 1, "keypoints": _GT_KPS,
                                        "area": 400.0}]})
_GOOD_PRED = json.dumps([{"image_id": 1, "score": 0.5, "keypoints": _PRED_KPS}])


def _eval_case(pred_text, gt_text=_GOOD_GT, sigmas_text=None):
    """An eval call; ``pred_text`` None leaves the results file unwritten,
    and ``sigmas_text`` is passed as the ``--sigmas`` file."""
    def make(tmp_path, cfg_path, weights):
        (tmp_path / "gt.json").write_text(gt_text)
        if pred_text is not None:
            (tmp_path / "pred.json").write_text(pred_text)
        flags = []
        if sigmas_text is not None:
            (tmp_path / "sig.json").write_text(sigmas_text)
            flags = ["--sigmas", str(tmp_path / "sig.json")]
        return ["eval", "--gt", str(tmp_path / "gt.json"),
                "--pred", str(tmp_path / "pred.json"), *flags]
    return make


def _sigmas_case(sigmas_text):
    return _eval_case(_GOOD_PRED, sigmas_text=sigmas_text)


_NAN_IMAGE = np.full((1, 3, 64, 64), np.nan)
_INF_PIXEL = np.zeros((1, 3, 64, 64))
_INF_PIXEL[0, 1, 5, 7] = np.inf
# one entry whose dims claim 65535^3 x 4 floats (4.5 PB) in a 43-byte file
_HUGE_ENTRY = (b"DRSI" + struct.pack("<II", 1, 1) + struct.pack("<I", 1) + b"w"
               + struct.pack("<BB", 0, 4) + struct.pack("<4I", 65535, 65535, 65535, 4)
               + bytes(8))

# name -> (argv builder, exit code, text the one-line message must hold)
MALFORMED = {
    "all-nan image": (_forward_case(_NAN_IMAGE), 1, "non-finite"),
    "one inf pixel": (_forward_case(_INF_PIXEL), 1, "1 non-finite"),
    "image size mismatch": (_forward_case(np.zeros(10)), 1, "shape needs 12288"),
    # 3 * 2^64 floats, which wraps to 0 in int64, and the empty file matched it
    "image shape past int64": (
        _forward_case(np.zeros(0), shape="1,3,4294967296,4294967296"), 1,
        "holds 0 bytes, shape needs 55340232221128654848 floats"),
    # the backbone's input rule, checked before the build
    "image of 4 channels": (_forward_case(np.zeros((1, 4, 64, 64)), shape="1,4,64,64"), 1,
                            "backbone expects 3 input channels, got 4"),
    "image height 96": (_forward_case(np.zeros((1, 3, 96, 64)), shape="1,3,96,64"), 1,
                        "input dims must be positive and divisible by 64, got 96x64"),
    "image height 0": (_forward_case(np.zeros(0), shape="1,3,0,64"), 1,
                       "input dims must be positive and divisible by 64, got 0x64"),
    # thresholds are checked before the (here missing) image is read
    "conf nan": (_forward_case(None, "--conf", "nan"), 1, "--conf must be in [0, 1]"),
    "conf below 0": (_forward_case(None, "--conf", "-1"), 1, "--conf must be in [0, 1]"),
    "conf above 1": (_forward_case(None, "--conf", "1.5"), 1, "--conf must be in [0, 1]"),
    "iou above 1": (_forward_case(None, "--iou", "1.5"), 1, "--iou must be in (0, 1)"),
    "iou 0": (_forward_case(None, "--iou", "0"), 1, "--iou must be in (0, 1)"),
    "archive entry larger than file": (
        _forward_case(np.zeros((1, 3, 64, 64)), archive=_HUGE_ENTRY), 1,
        "truncated archive while reading payload of 'w'"),
    "config order_n a string": (_config_case(order_n="2"), 1, "order_n must be an integer"),
    "config order_n a bool": (_config_case(order_n=True), 1, "order_n must be an integer"),
    "config anchors a number": (_config_case(anchors=5), 1, "anchors must be a list"),
    "config width_mult a string": (
        _config_case(width_mult="0.5"), 1, "width_mult must be a number"),
    "config lambda a string": (_config_case(**{"lambda": "3"}), 1, "lambda must be a number"),
    "config residual_interactions a string": (
        _config_case(residual_interactions="no"), 1,
        "residual_interactions must be true or false"),
    "result without keypoints": (
        _eval_case('[{"image_id": 1, "score": 0.5}]'), 1, "missing 'keypoints'"),
    "result without image_id": (
        _eval_case(_GOOD_PRED.replace('"image_id": 1, ', "")), 1, "missing 'image_id'"),
    "result without score": (
        _eval_case(_GOOD_PRED.replace('"score": 0.5, ', "")), 1, "missing 'score'"),
    "result with NaN score": (
        _eval_case(_GOOD_PRED.replace("0.5", "NaN")), 1, "must be finite"),
    "results not an array": (_eval_case('{"image_id": 1}'), 1, "JSON array"),
    "results not JSON": (_eval_case("[{broken"), 1, "error: "),
    "ground truth area 0": (
        _eval_case(_GOOD_PRED, _GOOD_GT.replace("400.0", "0")), 1, "area must be > 0"),
    # without an area the bbox gives it, so it must be 4 finite numbers
    "ground truth bbox of 2 values without area": (
        _eval_case(_GOOD_PRED, json.dumps({"annotations": [
            {"image_id": 1, "keypoints": _GT_KPS, "bbox": [1.0, 2.0]}]})), 1,
        "annotation 0: bbox must be 4 finite numbers, got [1.0, 2.0]"),
    "ground truth bbox NaN without area": (
        _eval_case(_GOOD_PRED, json.dumps({"annotations": [
            {"image_id": 1, "keypoints": _GT_KPS, "bbox": [0.0, 0.0, math.nan, 20.0]}]})), 1,
        "annotation 0: bbox must be 4 finite numbers, got [0.0, 0.0, nan, 20.0]"),
    "ground truth without keypoints": (
        _eval_case(_GOOD_PRED, '{"annotations": [{"image_id": 1, "area": 4.0}]}'), 1,
        "missing 'keypoints'"),
    "missing results file": (_eval_case(None), 2, "i/o error: "),
    "ground truth annotations a number": (
        _eval_case(_GOOD_PRED, '{"annotations": 5}'), 1, "annotations must be a JSON array"),
    "ground truth annotations null": (
        _eval_case(_GOOD_PRED, '{"annotations": null}'), 1,
        "annotations must be a JSON array"),
    # 2 * area * falloff^2 is 0 or inf in float64
    "ground truth area 1e-322": (
        _eval_case(_GOOD_PRED, _GOOD_GT.replace("400.0", "1e-322")), 1,
        "OKS scale 2 * area * falloff^2 must be finite and > 0"),
    "ground truth area 1e300 with sigmas 1e10": (
        _eval_case(_GOOD_PRED, _GOOD_GT.replace("400.0", "1e300"), json.dumps([1e10] * 17)),
        1, "OKS scale 2 * area * falloff^2 must be finite and > 0"),
    # an image id is a JSON integer: 1.7, true or "1" is not image 1
    "result image_id 1.7": (
        _eval_case(_GOOD_PRED.replace('"image_id": 1', '"image_id": 1.7')), 1,
        "results entry 0: image_id must be an integer"),
    "ground truth image_id 1.7": (
        _eval_case(_GOOD_PRED, _GOOD_GT.replace('"image_id": 1', '"image_id": 1.7')), 1,
        "annotation 0: image_id must be an integer"),
    "result image_id true": (
        _eval_case(_GOOD_PRED.replace('"image_id": 1', '"image_id": true')), 1,
        "results entry 0: image_id must be an integer"),
    "ground truth image_id true": (
        _eval_case(_GOOD_PRED, _GOOD_GT.replace('"image_id": 1', '"image_id": true')), 1,
        "annotation 0: image_id must be an integer"),
    "result image_id string": (
        _eval_case(_GOOD_PRED.replace('"image_id": 1', '"image_id": "1"')), 1,
        "results entry 0: image_id must be an integer"),
    "ground truth image_id string": (
        _eval_case(_GOOD_PRED, _GOOD_GT.replace('"image_id": 1', '"image_id": "1"')), 1,
        "annotation 0: image_id must be an integer"),
    # JSON's NaN reads as nan and 1e400 past the float range as inf
    "ground truth keypoint NaN": (
        _eval_case(_GOOD_PRED, _GOOD_GT.replace("50.0", "NaN", 1)), 1,
        "annotation 0: keypoints must be finite"),
    "ground truth keypoint 1e400": (
        _eval_case(_GOOD_PRED, _GOOD_GT.replace("50.0", "1e400", 1)), 1,
        "annotation 0: keypoints must be finite"),
    "ground truth area 1e400": (
        _eval_case(_GOOD_PRED, _GOOD_GT.replace("400.0", "1e400")), 1,
        "annotation 0: area must be > 0 and finite, got inf"),
    "sigmas null": (_sigmas_case("null"), 1, "falloff constants must be finite and > 0"),
    "sigmas NaN": (_sigmas_case("[NaN]"), 1, "falloff constants must be finite and > 0"),
    "sigmas 1e999": (_sigmas_case("1e999"), 1, "falloff constants must be finite and > 0"),
    "sigmas one of 17": (_sigmas_case("[0.05]"), 1, "1 falloff constants for 17 keypoints"),
    "sigmas bare number": (_sigmas_case("0.05"), 1, "1 falloff constants for 17 keypoints"),
    "sigmas an object": (_sigmas_case('{"a": 1}'), 1, "falloff constants must be numbers"),
    # their squares underflow to 0, or overflow
    "sigmas 1e-320": (_sigmas_case(json.dumps([1e-320] * 17)), 1, "so must their squares"),
    "sigmas 1e200": (_sigmas_case(json.dumps([1e200] * 17)), 1, "so must their squares"),
    # fixed in network.py; a file that still sets one, even to its value,
    # carries an unknown key
    **{f"config key {key}": (_config_case(**{key: value}), 1,
                             f"unknown config keys: ['{key}']")
       for key, value in [("base_channels", [128, 256, 512, 768, 1024]),
                          ("base_depths", [3, 9, 9, 3]), ("expansion", 4),
                          ("sam_kernels", {"top_down": 1, "bottom_up": 3}),
                          ("channel_round", 8)]},
    "config cbam_reduction 0": (
        _config_case(cbam_reduction=0), 1, "cbam_reduction must be finite and > 0"),
    "config depth_mult Infinity": (
        _config_case(depth_mult=math.inf), 1, "depth_mult must be finite and > 0"),
    "config depth_mult NaN": (
        _config_case(depth_mult=math.nan), 1, "depth_mult must be finite and > 0"),
    # finite, but 4,500 blocks (1e6: 4.5e7) before any is built; at 1e308
    # the depths times depth_mult pass the float range
    "config depth_mult 100": (
        _config_case(depth_mult=100), 1, "builds more than the 1000 blocks allowed"),
    "config depth_mult 1e6": (_config_case(depth_mult=1e6), 1, "more than the 1000 blocks"),
    "config depth_mult 1e308": (_config_case(depth_mult=1e308), 1, "more than the 1000 blocks"),
    "config width_mult negative": (
        _config_case(width_mult=-1.0), 1, "width_mult must be finite and > 0"),
    # finite, but its widest conv weight needs 27.6 GB
    "config width_mult 1e6": (
        _config_case(width_mult=1e6), 1, "a weight archive entry holds"),
    # bounded before rounding: at 1e308 the stage widths pass the float range
    "config width_mult 1e308": (
        _config_case(width_mult=1e308), 1, "width_mult 1e+308 makes a stage conv larger"),
    "config lambda 0": (_config_case(**{"lambda": 0.0}), 1, "lambda must be finite and > 0"),
    "config anchor side NaN": (
        _config_case(anchors=[[[math.nan, 27.0], [44.0, 40.0], [38.0, 94.0]]] * 4), 1,
        "anchor sides must be finite and > 0"),
    # a box area of Infinity in the detections JSON; 0/0 in box_iou
    "config anchor side 1e308": (
        _config_case(anchors=[[[1e308, 1e308], [44.0, 40.0], [38.0, 94.0]]] * 4), 1,
        "anchor sides must be finite and > 0, in [1.49e-154, 2.37e+153] px, got 1e+308"),
    "config anchor side 1e-300": (
        _config_case(anchors=[[[1e-300, 1e-300], [44.0, 40.0], [38.0, 94.0]]] * 4), 1,
        "anchor sides must be finite and > 0, in [1.49e-154, 2.37e+153] px, got 1e-300"),
    # finite pixels that overflow float32 inside the forward
    "image of 3e38": (_forward_case(np.full((1, 3, 64, 64), 3e38)), 1,
                      "non-finite values in the heads"),
}
_FOUND_WHILE_LOADING = {"archive entry larger than file"}
_FOUND_AFTER_FORWARD = {"image of 3e38"}


class TestMalformedInput:
    """Each malformed input ends with exit 1 (validation) or 2 (I/O) and one
    line on stderr, never a traceback or a warning."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_one_line_exit_code(self, case, mini_cfg_file, tmp_path, capsys,
                                monkeypatch):
        make, code, text = MALFORMED[case]
        weights = tmp_path / "w.drsi"
        save_weights(build_model(ModelConfig.from_file(mini_cfg_file), seed=0), weights)
        argv = make(tmp_path, mini_cfg_file, weights)

        def refuse(what):
            def guard(*args, **kwargs):
                raise AssertionError(f"{what} for a rejected input")
            return guard
        # a bad archive can only show while it loads into the built model
        if case in _FOUND_WHILE_LOADING:
            monkeypatch.setattr(Model, "forward", refuse("forward run"))
        elif case not in _FOUND_AFTER_FORWARD:
            monkeypatch.setattr(cli, "Model", refuse("model built"))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                got = main(argv)
            except SystemExit as exc:
                got = exc.code
        err = capsys.readouterr().err
        assert got in (1, 2) and got == code
        assert "Traceback" not in err and err.count("\n") == 1
        assert text in err
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "o.json").exists()


def test_overflow_at_two_workers_prints_one_line(mini_cfg_file, tmp_path, capsys, monkeypatch):
    """Worker ranges run under the forward's silenced error state: a frame
    that overflows inside split kernels still gives one stderr line and no
    RuntimeWarning."""
    monkeypatch.setattr(T, "_worker_count", lambda: 2)
    monkeypatch.setattr(T, "_blas_threads", lambda: 1)
    monkeypatch.setattr(T, "_GEMM_GRAIN", 1)
    monkeypatch.setattr(T, "_ELEMENT_GRAIN", 1)
    weights = tmp_path / "w.drsi"
    save_weights(build_model(ModelConfig.from_file(mini_cfg_file), seed=0), weights)
    argv = _forward_case(np.full((1, 3, 64, 64), 3e38))(tmp_path, mini_cfg_file, weights)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1 and "non-finite values in the heads" in err
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


class TestGradcheckCommand:
    def test_tensor_module(self, capsys):
        assert main(["gradcheck", "--module", "tensor", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "tensor.conv2d" in out and "FAIL" not in out

