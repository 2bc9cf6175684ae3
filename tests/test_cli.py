"""Command-line surface: subcommands, formats and exit codes."""

import json
import math
import struct

import numpy as np
import pytest

from drsinet import cli
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


_GT_KPS = [50.0, 50.0, 2.0] + [0.0] * 48
_PRED_KPS = [50.0, 50.0, 0.9] * 17


def _forward_case(image, *flags, archive=None):
    """A forward call; ``image`` None leaves the image file unwritten and
    ``archive`` bytes replace the weight archive."""
    def make(tmp_path, cfg_path, weights):
        image_path = tmp_path / "img.f32"
        if image is not None:
            image.astype("<f4").tofile(image_path)
        if archive is not None:
            weights.write_bytes(archive)
        return ["forward", "--config", str(cfg_path), "--weights", str(weights),
                "--image", str(image_path), "--shape", "1,3,64,64",
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


def _eval_case(pred_text, gt_text=_GOOD_GT):
    """An eval call; ``pred_text`` None leaves the results file unwritten."""
    def make(tmp_path, cfg_path, weights):
        (tmp_path / "gt.json").write_text(gt_text)
        if pred_text is not None:
            (tmp_path / "pred.json").write_text(pred_text)
        return ["eval", "--gt", str(tmp_path / "gt.json"),
                "--pred", str(tmp_path / "pred.json")]
    return make


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
    "ground truth without keypoints": (
        _eval_case(_GOOD_PRED, '{"annotations": [{"image_id": 1, "area": 4.0}]}'), 1,
        "missing 'keypoints'"),
    "missing results file": (_eval_case(None), 2, "i/o error: "),
}
_FOUND_WHILE_LOADING = {"archive entry larger than file"}


class TestMalformedInput:
    """Each malformed input ends with exit 1 (validation) or 2 (I/O) and one
    line on stderr, never a traceback."""

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
        else:
            monkeypatch.setattr(cli, "Model", refuse("model built"))
        capsys.readouterr()
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        err = capsys.readouterr().err
        assert got in (1, 2) and got == code
        assert "Traceback" not in err and err.count("\n") == 1
        assert text in err


class TestGradcheckCommand:
    def test_tensor_module(self, capsys):
        assert main(["gradcheck", "--module", "tensor", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "tensor.conv2d" in out and "FAIL" not in out

