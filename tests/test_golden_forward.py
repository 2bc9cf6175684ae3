"""Golden forward fixture: seeded heads of the miniature config at 64² and of
drsinet-s at 192², recorded from the im2col/einsum kernels before the
first rewrite of the forward kernels.  Every kernel change since must keep
each head level within a fixed fraction of that level's largest magnitude.

Record (only ever from a known-good tree; the tolerance below is fixed and
is never loosened):

    PYTHONPATH=src python tests/test_golden_forward.py --record

It prints each level's largest change against the existing fixture, then
rewrites the fixture.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from drsinet.network import ModelConfig, build_model
from drsinet.tensor import tensor

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).with_name("data") / "golden_forward.npz"
# per head level: max |got - want| <= REL_TOL * max |want|
REL_TOL = 5e-5
CASES = {"mini": ("mini.json", 64), "s": ("drsinet-s.json", 192)}


def heads(case):
    """Heads of the seed-0 model on a seed-0 standard-normal frame."""
    config, size = CASES[case]
    model = build_model(ModelConfig.from_file(ROOT / "configs" / config), seed=0)
    frame = np.random.default_rng(0).standard_normal((1, 3, size, size))
    return [h.numpy() for h in model(tensor(frame.astype(np.float32)))]


@pytest.mark.parametrize("case", sorted(CASES))
def test_heads_match_fixture(case):
    with np.load(FIXTURE) as data:
        want = [data[f"{case}_{i}"] for i in range(4)]
    got = heads(case)
    assert [g.shape for g in got] == [w.shape for w in want]
    for level, (g, w) in enumerate(zip(got, want)):
        err = float(np.max(np.abs(g.astype(np.float64) - w)))
        bound = REL_TOL * float(np.max(np.abs(w)))
        assert err <= bound, f"{case} level {level}: {err:.3e} > {bound:.3e}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record  (rewrites {FIXTURE})")
    arrays = {f"{case}_{i}": h for case in CASES for i, h in enumerate(heads(case))}
    old = dict(np.load(FIXTURE)) if FIXTURE.exists() else {}
    for key, new in arrays.items():
        if key in old and old[key].shape == new.shape:
            change = float(np.max(np.abs(new.astype(np.float64) - old[key])))
            print(f"{key}: max change {change:.3e} = "
                  f"{change / float(np.max(np.abs(old[key]))):.3e} of max |head|")
        else:
            print(f"{key}: new, shape {new.shape}")
    np.savez_compressed(FIXTURE, **arrays)
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
