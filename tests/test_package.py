"""Package root: public API imports and a smoke forward."""

import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import drsinet
from drsinet import ModelConfig, build_model


def test_submodules_not_shadowed():
    # root re-exports must not hide the tensor/decode submodules
    from drsinet import tensor as tensor_module
    from drsinet import decode as decode_module
    assert isinstance(tensor_module, types.ModuleType)
    assert isinstance(decode_module, types.ModuleType)


def test_root_api_smoke(rng):
    cfg = ModelConfig(variant="custom", width_mult=0.005, depth_mult=0.2,
                      cbam_reduction=4, neck="pan")
    model = build_model(cfg, seed=0)
    assert any(p.trainable and p.count() for _, p in model.named_parameters())
    x = drsinet.tensor.tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
    outs = model(x)
    assert len(outs) == 4
    dets = drsinet.decode.decode(outs[0], cfg.strides[0], cfg.anchors[0],
                                 conf_threshold=0.2)
    assert np.all(dets.scores >= 0.2)


def test_all_exports_resolve():
    for name in drsinet.__all__:
        assert getattr(drsinet, name, None) is not None, name


def test_cli_import_loads_no_scipy():
    """numpy is the only runtime dependency: a fresh interpreter that
    imports the whole command-line surface has no scipy module loaded, nor
    ``concurrent.futures`` (which pulls in ``logging``), since the worker
    pool is built on ``threading``; nor ``drsinet.selftest``, which only the
    gradcheck and selftest commands import."""
    src = str(Path(drsinet.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import drsinet.cli; "
            "sys.exit(' '.join(sorted({'scipy', 'concurrent.futures', 'drsinet.selftest'}"
            " & set(sys.modules))) or None)")
    subprocess.run([sys.executable, "-c", code, src], check=True, timeout=60)
