"""Command-line surface: profiling, tracing, forwards, evaluation, checks.

Exit codes: 0 success, 1 validation failure, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import decode as D
from . import profiler as P
from .network import ConfigError, Model, ModelConfig, check_input_shape
from .tensor import DomainError, Tensor


class _Parser(argparse.ArgumentParser):
    """argparse variant mapping usage errors to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _build_parser():
    parser = _Parser(prog="drsinet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="parameter/MAC profile of a config")
    p.add_argument("--config", required=True)
    p.add_argument("--input-size", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("trace", help="ordered per-layer output shapes")
    p.add_argument("--config", required=True)
    p.add_argument("--input-size", type=int, required=True)

    p = sub.add_parser("forward", help="run a raw f32 image through a model")
    p.add_argument("--config", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True,
                   help="headerless little-endian f32 NCHW file")
    p.add_argument("--shape", required=True,
                   help="image dims as N,C,H,W (e.g. 1,3,960,960)")
    p.add_argument("--out", required=True, help="detections JSON path")
    p.add_argument("--conf", type=float, default=0.25,
                   help="score threshold in [0, 1]")
    p.add_argument("--iou", type=float, default=0.65,
                   help="NMS IoU threshold in (0, 1)")
    p.add_argument("--image-id", type=int, default=0)

    p = sub.add_parser("eval", help="AP/AR over COCO-style keypoint files")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--sigmas", default=None,
                   help="JSON file with a list of per-keypoint falloffs")

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--module", default="all",
                   choices=("tensor", "interactions", "blocks", "network", "all"))
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("selftest", help="run the full property suite")
    p.add_argument("--quick", action="store_true",
                   help="skip the full-resolution forward")
    return parser


def _load_config(path):
    if not os.path.exists(path):
        raise OSError(f"config file not found: {path}")
    return ModelConfig.from_file(path)


def _cmd_profile(args):
    report = P.profile(_load_config(args.config), args.input_size)
    if args.format == "csv":
        sys.stdout.write(P.report_csv(report))
    else:
        sys.stdout.write(P.report_jsonl(report))
    return 0


def _cmd_trace(args):
    for name, shape in P.trace(_load_config(args.config), args.input_size):
        print(f"{name}\t{shape}")
    return 0


def _cmd_forward(args):
    # NaN fails both range tests
    if not 0.0 <= args.conf <= 1.0:
        raise DomainError(f"--conf must be in [0, 1], got {args.conf}")
    if not 0.0 < args.iou < 1.0:
        raise DomainError(f"--iou must be in (0, 1), got {args.iou}")
    cfg = _load_config(args.config)
    try:
        dims = tuple(int(v) for v in args.shape.split(","))
    except ValueError:
        raise ConfigError(f"bad --shape {args.shape!r}; expected N,C,H,W")
    if len(dims) != 4:
        raise ConfigError(f"--shape needs four dims, got {args.shape!r}")
    if dims[0] != 1:
        raise ConfigError(f"forward takes one image: --shape batch must be 1, got {dims[0]}")
    check_input_shape(dims)
    # an exact integer product, compared with the file's size before any of
    # it is read, so a huge shape cannot wrap and a huge file is not loaded
    expected = math.prod(dims)
    with open(args.image, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != 4 * expected:
            raise ConfigError(f"image file holds {size} bytes, shape needs {expected} "
                              f"floats ({4 * expected} bytes)")
        raw = np.fromfile(fh, dtype="<f4", count=expected)
    if not np.isfinite(raw).all():
        raise DomainError(f"image file holds {np.count_nonzero(~np.isfinite(raw))} "
                          "non-finite values (NaN or inf)")
    # the archive sets every parameter, so the model needs no seeded init
    model = P.load_weights(Model(cfg), args.weights)
    # an overflow shows as a non-finite head, which decode refuses in one line
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the fresh array is frozen as the input, not copied
        outs = model(Tensor(raw.reshape(dims), copy=False))
    dets = D.Detections.concatenate([
        D.decode(head, stride, anchors, args.conf)
        for head, stride, anchors in zip(outs, cfg.strides, cfg.anchors)])
    dets = D.nms(dets, args.iou)
    D.write_results({args.image_id: dets}, args.out)
    print(f"wrote {len(dets)} detections to {args.out}")
    return 0


def _cmd_eval(args):
    sigmas = None
    if args.sigmas:
        with open(args.sigmas, "r", encoding="utf-8") as fh:
            sigmas = D.KeypointSigmas(json.load(fh))
    gts = D.read_ground_truth(args.gt)
    preds = D.read_results(args.pred)
    metrics = D.evaluate(preds, gts, sigmas)
    for key in ("AP", "AP50", "AP75", "APL", "AR"):
        print(f"{key} {metrics[key]:.4f}")
    return 0


def _cmd_gradcheck(args):
    from . import selftest as S     # imported by the two commands that use it
    results = S.run_gradchecks(args.module, args.seed)
    worst = 0.0
    for name, err, bound in results:
        status = "ok" if err <= bound else "FAIL"
        print(f"{name}: max rel err {err:.3e} (bound {bound:.0e}) {status}")
        worst = max(worst, err / bound)
    return 0 if worst <= 1.0 else 1


def _cmd_selftest(args):
    from . import selftest as S
    results = S.run_selftest(quick=args.quick)
    failed = 0
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "profile": _cmd_profile,
    "trace": _cmd_trace,
    "forward": _cmd_forward,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "selftest": _cmd_selftest,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
