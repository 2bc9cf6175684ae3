"""Seeded mutation of every input the CLI reads: a miniature config, its
weight archive, a 64x64 frame, a results file and a ground-truth file.

Each mutant is one of: the file truncated, a value retyped, a number set to
NaN, +-Inf, +-1e308 or 1e-320 (in a binary file the nearest float32: NaN,
+-Inf, +-3.4e38 or 1e-45), or a key dropped (in a binary file, four bytes).
It runs through ``cli.main`` with every warning an error, and must end in
exit 0, 1 or 2 with at most one stderr line, no traceback and no
``MemoryError``; a run that exits 0 must write strict JSON (no NaN or
Infinity) or print AP/AR values in [0, 1].

The library rows feed the same numbers to ``decode`` and ``nms`` directly:
a threshold outside its range and a head holding NaN or inf each raise
``DomainError``; they never return a result.
"""

import contextlib
import io
import json
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from drsinet import cli
from drsinet.decode import Detections, decode, nms
from drsinet.network import ModelConfig, build_model
from drsinet.profiler import save_weights
from drsinet.tensor import DomainError

ROOT = Path(__file__).resolve().parents[1]
TARGETS = ("config", "archive", "image", "results", "ground truth")
MUTANTS_PER_INPUT = 60
NUMBERS = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320)
FLOAT32S = (math.nan, math.inf, -math.inf, 3.4e38, -3.4e38, 1e-45)
OTHER_TYPES = ("x", [], {}, True, None, 7)


def _person(rng, image_id, with_box):
    kps = np.stack([rng.uniform(10, 50, 17), rng.uniform(10, 50, 17),
                    rng.integers(0, 3, 17)], axis=1)
    kps[0, 2] = 2
    entry = {"image_id": image_id, "keypoints": kps.ravel().tolist(), "area": 900.0}
    if with_box:
        entry["bbox"] = [10.0, 10.0, 40.0, 40.0]
    return entry


def _inputs(tmp):
    """The valid files, by input name."""
    rng = np.random.default_rng(0)
    config = tmp / "mini.json"
    config.write_text((ROOT / "configs" / "mini.json").read_text())
    save_weights(build_model(ModelConfig.from_file(config), seed=0), tmp / "w.drsi")
    rng.standard_normal((1, 3, 64, 64)).astype("<f4").tofile(tmp / "img.f32")
    gts = [_person(rng, img, k % 2 == 0) for img in (1, 2) for k in range(2)]
    (tmp / "gt.json").write_text(json.dumps({"annotations": gts}))
    preds = []
    for k, gt in enumerate(gts):
        pred = dict(gt, score=0.5 + 0.1 * k)
        pred.pop("area")
        preds.append(pred)
    (tmp / "pred.json").write_text(json.dumps(preds))
    return {"config": config, "archive": tmp / "w.drsi", "image": tmp / "img.f32",
            "results": tmp / "pred.json", "ground truth": tmp / "gt.json"}


def _commands(files, out):
    forward = ["forward", "--config", str(files["config"]), "--weights", str(files["archive"]),
               "--image", str(files["image"]), "--shape", "1,3,64,64", "--out", str(out)]
    evaluate = ["eval", "--gt", str(files["ground truth"]), "--pred", str(files["results"])]
    profile = ["profile", "--config", str(files["config"]), "--input-size", "64"]
    return {"config": [forward, profile], "archive": [forward], "image": [forward],
            "results": [evaluate], "ground truth": [evaluate]}


def _paths(node, path=()):
    """Every location in a parsed JSON document, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate_json(rng, text):
    doc = json.loads(text)
    kind = rng.choice(["truncate", "retype", "number", "drop"])
    if kind == "truncate":
        cut = int(rng.integers(0, len(text)))
        return f"truncated at {cut}", text[:cut]
    paths = list(_paths(doc))
    path = paths[int(rng.integers(len(paths)))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "retype":
        others = [v for v in OTHER_TYPES if type(v) is not type(parent[path[-1]])]
        parent[path[-1]] = others[int(rng.integers(len(others)))]
    else:
        parent[path[-1]] = float(rng.choice(NUMBERS))
    value = "" if kind == "drop" else f" = {parent[path[-1]]!r}"
    return f"{kind} {list(path)}{value}", json.dumps(doc)


def _mutate_binary(rng, data):
    kind = rng.choice(["truncate", "retype", "number", "drop"])
    at = int(rng.integers(0, len(data) - 4))
    if kind == "truncate":
        return f"truncated at {at}", data[:at]
    if kind == "drop":
        return f"4 bytes dropped at {at}", data[:at] + data[at + 4:]
    if kind == "retype":
        byte = int(rng.integers(256))
        return f"byte {at} = {byte}", data[:at] + bytes([byte]) + data[at + 1:]
    value = float(rng.choice(FLOAT32S))
    return f"float32 at {at} = {value!r}", data[:at] + struct.pack("<f", value) + data[at + 4:]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:        # reported as the mutant's failure
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    json.loads(text, parse_constant=reject)


def _fault(argv, code, out, err, out_path):
    """What is wrong with one run, or None."""
    if code not in (0, 1, 2):
        return f"exit {code!r}"
    if err.count("\n") > 1 or "Traceback" in err or "MemoryError" in err:
        return f"stderr {err!r}"
    if code == 0 and argv[0] == "forward":
        try:
            _strict_json(out_path.read_text())
        except ValueError as exc:
            return f"detections file: {exc}"
    if code == 0 and argv[0] == "eval":
        values = [float(line.split()[1]) for line in out.splitlines()]
        if not (len(values) == 5 and all(0.0 <= v <= 1.0 for v in values)):
            return f"metrics {out!r}"
    return None


@pytest.mark.parametrize("target", TARGETS)
def test_mutants_fail_closed(target, tmp_path):
    files = _inputs(tmp_path)
    out_path = tmp_path / "out.json"
    commands = _commands(files, out_path)[target]
    for argv in commands:
        assert _run(argv)[0] == 0, f"unmutated {argv[0]} fails"
    path = files[target]
    original = path.read_bytes()
    rng = np.random.default_rng(TARGETS.index(target))
    faults = []
    for n in range(MUTANTS_PER_INPUT):
        if path.suffix == ".json":
            what, text = _mutate_json(rng, original.decode())
            path.write_text(text)
        else:
            what, data = _mutate_binary(rng, original)
            path.write_bytes(data)
        for argv in commands:
            out_path.unlink(missing_ok=True)
            code, out, err = _run(argv)
            fault = _fault(argv, code, out, err, out_path)
            if fault:
                faults.append(f"mutant {n} ({what}), {argv[0]}: {fault}")
    assert not faults, "\n".join(faults)


# the mini config's finest-level anchors; a head of 3 * (6 + 3 * 17) channels
ANCHORS = ((19.0, 27.0), (44.0, 40.0), (38.0, 94.0))


def _head(fill=0.0):
    return np.full((1, 3 * 57, 8, 8), fill, np.float32)


@pytest.mark.parametrize("value", NUMBERS)
def test_decode_threshold_fails_closed(value):
    """A threshold outside [0, 1] is refused; 1e-320 lies inside, and every
    candidate at or above it comes back."""
    if 0.0 <= value <= 1.0:
        assert len(decode(_head(), 8, ANCHORS, value)) == 3 * 8 * 8
        return
    with pytest.raises(DomainError):
        decode(_head(), 8, ANCHORS, value)


@pytest.mark.parametrize("value", FLOAT32S[:3])
def test_decode_non_finite_head_fails_closed(value):
    head = _head()
    rng = np.random.default_rng(0)
    head.flat[int(rng.integers(head.size))] = value
    with pytest.raises(DomainError):
        decode(head, 8, ANCHORS, 0.25)


@pytest.mark.parametrize("value", NUMBERS)
def test_nms_iou_fails_closed(value):
    """An IoU threshold outside (0, 1) is refused; 1e-320 lies inside, and
    of two overlapping boxes only the better one stays."""
    dets = Detections([[10.0, 10.0, 4.0, 4.0], [11.0, 10.0, 4.0, 4.0]], [0.9, 0.8],
                      np.zeros((2, 17, 3)))
    if 0.0 < value < 1.0:
        assert nms(dets, value).scores.tolist() == [0.9]
        return
    with pytest.raises(DomainError):
        nms(dets, value)
