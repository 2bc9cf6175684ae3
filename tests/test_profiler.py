"""Profiler: the batch-0 profile against golden figures and a real forward,
scaling laws, and the binary weight archive."""

import gc
import json
import math
import os
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from drsinet import profiler as P
from drsinet import tensor as T
from drsinet.blocks import C3dr
from drsinet.layers import Conv2d
from drsinet.network import ModelConfig, Model, build_model
from drsinet.profiler import (
    ArchiveError, largest_param_layers, load_weights, profile, read_archive,
    report_csv, report_jsonl, save_weights, trace,
)
from drsinet.tensor import DomainError, tensor

ROOT = Path(__file__).resolve().parents[1]
# Recorded from the hand-written analytic profiler that the batch-0 forward
# replaced: totals over a config grid and, for the mini config at 128, every
# row of a layer that owns parameters plus the pyramid and head rows.
GOLDEN = json.loads((ROOT / "tests" / "data" / "golden_profile.json").read_text())


def mini_config(**overrides):
    base = dict(variant="custom", width_mult=0.02, depth_mult=0.2,
                cbam_reduction=4, neck="asi_pan")
    base.update(overrides)
    return ModelConfig(**base)


class TestProfile:
    def test_input_size_divisibility(self):
        for size in (100, 0, -64):
            with pytest.raises(DomainError):
                profile(ModelConfig(variant="s"), size)

    def test_totals_are_column_sums(self):
        report = profile(mini_config(), 128)
        assert report.total_params == sum(r.params for r in report.rows)
        assert report.total_macs == sum(r.macs for r in report.rows)

    def test_params_match_count_trainable(self):
        for cfg in [mini_config(), ModelConfig(variant="s")]:
            model = Model(cfg)
            assert profile(cfg, 128).total_params == \
                sum(p.count() for _, p in model.named_parameters() if p.trainable)

    def test_params_resolution_invariant(self):
        cfg = ModelConfig(variant="s")
        assert profile(cfg, 640).total_params == profile(cfg, 960).total_params

    @pytest.mark.parametrize("neck", ["pan", "cbam_pan", "asi_pan"])
    @pytest.mark.parametrize("backbone", ["c3dr", "c3"])
    def test_instrumented_counter_matches_analytic(self, neck, backbone):
        cfg = mini_config(neck=neck, backbone_block=backbone)
        model = build_model(cfg, seed=0)
        report = profile(cfg, 128)
        x = tensor(np.random.default_rng(0)
                   .uniform(0, 1, (1, 3, 128, 128)).astype(np.float32))
        with T.mac_counter() as mc:
            model(x)
        assert mc.macs == report.total_macs

    def test_counter_counts_per_image(self):
        cfg = mini_config()
        model = build_model(cfg, seed=0)
        x = tensor(np.random.default_rng(1)
                   .uniform(0, 1, (2, 3, 64, 64)).astype(np.float32))
        with T.mac_counter() as mc:
            model(x)
        assert mc.macs == profile(cfg, 64).total_macs

    def test_counter_scopes_by_parameter_path(self):
        cfg = mini_config()
        model = build_model(cfg, seed=0)
        x = tensor(np.zeros((1, 3, 64, 64), np.float32))
        with T.mac_counter() as mc:
            model(x)
        owners = {name.rpartition(".")[0] for name, _ in model.named_parameters()}
        assert owners <= set(mc.outputs)
        assert sum(mc.scope_macs.values()) == mc.macs
        assert not mc.scopes

    def test_counter_names_standalone_layer_relative_to_it(self):
        mod = C3dr(8, 16, depth=1).finalize(14)
        with T.mac_counter() as mc:
            mod(tensor(np.zeros((1, 8, 8, 8), np.float32)))
        # paths from the layer the walk started at, in the order layers return
        block = [f"blocks.0.{n}" for n in (
            "invbn.bn1", "invbn.c1", "invbn.bn2", "invbn.dw", "invbn.bn3", "invbn.c2",
            "invbn", "ln", "rgc.phi_in", "rgc.dw", "rgc.g_k.0.conv", "rgc.g_k.0.bn",
            "rgc.g_k.0", "rgc.phi_out", "rgc")]
        assert list(mc.outputs) == (
            ["conv_cross.conv", "conv_cross.bn", "conv_cross"] + block + ["blocks.0"]
            + ["conv_main.conv", "conv_main.bn", "conv_main",
               "conv_final.conv", "conv_final.bn", "conv_final", ""])

    def test_counter_names_unwalked_layer_by_type(self):
        conv = Conv2d(2, 3, 1)
        conv.weight.set(np.ones((3, 2, 1, 1), np.float32))
        conv.bias.set(np.zeros(3, np.float32))
        with T.mac_counter() as mc:
            conv(tensor(np.ones((1, 2, 4, 4), np.float32)))
        assert mc.scope_macs == {"Conv2d": 3 * 2 * 16}

    def test_no_seeded_init_and_no_warnings(self, monkeypatch):
        def fail(*args):
            raise AssertionError("profile ran the seeded weight init")
        monkeypatch.setattr(T, "_seeded_uniform", fail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = profile(ModelConfig(variant="l"), 1280)
        assert report.total_params == 82_963_077

    def test_gmacs_ratios_match_published_scaling(self):
        cfg = ModelConfig(variant="s")
        g = {n: profile(cfg, n).gmacs for n in (640, 960, 1280)}
        assert abs(g[960] / g[640] - 24.6 / 10.9) <= 0.07
        assert abs(g[1280] / g[960] - 43.7 / 24.6) <= 0.06

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_resolution_quadratic_trunk(self, alpha):
        cfg = ModelConfig(variant="s")
        base = 640
        scaled = int(base * alpha)
        ratio = profile(cfg, scaled).gmacs / profile(cfg, base).gmacs
        assert alpha ** 2 - 0.03 <= ratio <= alpha ** 2 + 0.03

    def test_resolution_ladder_quadratic(self):
        # consecutive sizes of the published resolution sweep scale almost
        # exactly quadratically (the pooled-descriptor MLPs are the only
        # resolution-independent term)
        cfg = ModelConfig(variant="s")
        sizes = [384, 448, 512, 640, 960, 1280]
        gmacs = [profile(cfg, s).gmacs for s in sizes]
        for (s1, g1), (s2, g2) in zip(zip(sizes, gmacs), zip(sizes[1:], gmacs[1:])):
            expected = (s2 / s1) ** 2
            assert abs(g2 / g1 - expected) <= 0.03

    def test_parameter_bands(self):
        for variant, lo, hi in [("s", 12.3e6, 18.5e6), ("m", 29.4e6, 44.2e6),
                                ("l", 63.8e6, 95.6e6)]:
            n = profile(ModelConfig(variant=variant), 640).total_params
            assert lo <= n <= hi, f"{variant}: {n}"

    def test_largest_param_layers_sorted(self):
        report = profile(ModelConfig(variant="s"), 640)
        top = largest_param_layers(report)
        assert len(top) == 5
        assert all(a.params >= b.params for a, b in zip(top, top[1:]))


class TestTrace:
    def test_pyramid_rows_variant_l(self):
        rows = dict(trace(ModelConfig(variant="l"), 960))
        assert rows["backbone.P3"] == (1, 256, 120, 120)
        assert rows["backbone.P4"] == (1, 512, 60, 60)
        assert rows["backbone.P5"] == (1, 768, 30, 30)
        assert rows["backbone.P6"] == (1, 1024, 15, 15)

    def test_miniature_hand_computed_shapes(self):
        # width 0.02 rounds the stage widths to [8, 8, 16, 16, 24]; spatial
        # dims halve at the stem and at each stage entry
        rows = dict(trace(mini_config(), 128))
        assert rows["backbone.focus.conv.conv"] == (1, 8, 64, 64)
        assert rows["backbone.stages.0.down.conv"] == (1, 8, 32, 32)
        assert rows["backbone.P3"] == (1, 8, 16, 16)
        assert rows["backbone.P4"] == (1, 16, 8, 8)
        assert rows["backbone.P6"] == (1, 24, 2, 2)
        assert rows["heads.0"] == (1, 171, 16, 16)
        assert rows["heads.3"] == (1, 171, 2, 2)

    def test_neck_rows_present_across_kinds(self):
        for kind in ("pan", "cbam_pan", "asi_pan"):
            rows = dict(trace(mini_config(neck=kind), 128))
            for level in ("N3", "N4", "N5", "N6"):
                assert f"neck.{level}" in rows


class TestReportFormats:
    def test_csv_last_line_totals(self):
        report = profile(mini_config(), 128)
        lines = report_csv(report).strip().splitlines()
        assert lines[0] == "name,n,c,h,w,params,macs"
        last = lines[-1].split(",")
        assert last[0] == "total"
        assert int(last[-2]) == report.total_params
        assert int(last[-1]) == report.total_macs

    def test_json_totals(self):
        report = profile(mini_config(), 128)
        lines = [json.loads(ln) for ln in report_jsonl(report).splitlines()]
        assert lines[-1]["totals"]["params"] == report.total_params
        assert lines[-1]["totals"]["macs"] == report.total_macs
        assert lines[-1]["totals"]["gmacs"] == report.gmacs
        assert lines[-1]["input_size"] == 128
        assert len(lines) == len(report.rows) + 1


def _grid_id(case):
    residual = "res" if case["residual_interactions"] else "plain"
    return (f"{case['variant']}-{case['neck']}-{case['backbone_block']}-"
            f"{residual}-{case['input_size']}")


def _is_marker(row):
    last = row.name.split(".")[-1]
    return last[0] in "PN" and last[1:].isdigit() or row.name.startswith("heads.")


class TestGoldenProfile:
    @pytest.mark.parametrize("case", GOLDEN["totals"], ids=_grid_id)
    def test_totals_bit_equal(self, case):
        cfg = ModelConfig(variant=case["variant"], neck=case["neck"],
                          backbone_block=case["backbone_block"],
                          residual_interactions=case["residual_interactions"])
        report = profile(cfg, case["input_size"])
        assert (report.total_params, report.total_macs) == (case["params"], case["macs"])

    def test_mini_parameterised_rows(self):
        golden = GOLDEN["mini_128"]
        report = profile(ModelConfig.from_file(ROOT / golden["config"]),
                         golden["input_size"])
        got = [(r.name, list(r.shape), r.params, r.macs)
               for r in report.rows if r.params > 0]
        assert [g[:3] for g in got] == [tuple(w[:3]) for w in golden["rows"]]
        for (name, _, _, macs), want in zip(got, golden["rows"]):
            if name.endswith((".attn.fc1", ".attn.fc2")):
                # the Cbam MLP runs on the average- and the max-pooled
                # descriptor; the fixture holds one pass on these rows, the
                # forward charges both to them
                assert macs == 2 * want[3], name
            else:
                assert macs == want[3], name
        assert any(g[0].endswith(".attn.fc1") for g in got)
        assert (report.total_params, report.total_macs) == \
            (golden["total_params"], golden["total_macs"])

    def test_mini_pyramid_and_head_rows(self):
        golden = GOLDEN["mini_128"]
        report = profile(ModelConfig.from_file(ROOT / golden["config"]),
                         golden["input_size"])
        got = [[r.name, list(r.shape)] for r in report.rows if _is_marker(r)]
        assert got == golden["markers"]


class TestWeightArchive:
    def test_byte_exact_round_trip(self, tmp_path):
        model = build_model(mini_config(), seed=1)
        p1, p2 = tmp_path / "a.drsi", tmp_path / "b.drsi"
        save_weights(model, p1)
        load_weights(model, p1)
        save_weights(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_archive_read_only_in_file_order(self, tmp_path):
        model = build_model(mini_config(), seed=1)
        path = tmp_path / "w.drsi"
        save_weights(model, path)
        entries = read_archive(path)
        params = list(model.named_parameters())
        assert list(entries) == [name for name, _ in params]
        for (name, p), arr in zip(params, entries.values()):
            assert not arr.flags.writeable and arr.shape == p.logical_shape
            assert arr.tobytes() == p.value.numpy().tobytes(), name

    def test_f32_payload_little_endian(self, tmp_path):
        model = build_model(mini_config(), seed=2)
        name, param = next(iter(model.named_parameters()))
        ones = np.ones(param.logical_shape, np.float32)
        param.set(ones)
        path = tmp_path / "w.drsi"
        save_weights(model, path)
        entries = read_archive(path)
        assert entries[name].tobytes()[:4] == bytes.fromhex("0000803f")

    def test_cross_seed_forward_bitwise(self, tmp_path, rng):
        src = build_model(mini_config(), seed=3)
        dst = build_model(mini_config(), seed=999)
        path = tmp_path / "w.drsi"
        save_weights(src, path)
        load_weights(dst, path)
        x = tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
        for a, b in zip(src(x), dst(x)):
            assert a.numpy().tobytes() == b.numpy().tobytes()

    def test_renamed_entry_error_names_it(self, tmp_path):
        model = build_model(mini_config(), seed=4)
        path = tmp_path / "w.drsi"
        save_weights(model, path)
        blob = path.read_bytes()
        victim = next(iter(dict(model.named_parameters())))
        renamed = victim[:-1] + ("X" if victim[-1] != "X" else "Y")
        patched = blob.replace(victim.encode(), renamed.encode(), 1)
        path.write_bytes(patched)
        with pytest.raises(ArchiveError) as err:
            load_weights(model, path)
        assert victim in str(err.value) and renamed in str(err.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.drsi"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ArchiveError, match="magic"):
            read_archive(path)

    def test_bad_version(self, tmp_path):
        model = build_model(mini_config(), seed=5)
        path = tmp_path / "w.drsi"
        save_weights(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveError, match="version"):
            read_archive(path)

    def test_truncated_archive(self, tmp_path):
        model = build_model(mini_config(), seed=6)
        path = tmp_path / "w.drsi"
        save_weights(model, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ArchiveError, match="truncated"):
            read_archive(path)

    def test_missing_and_extra_listed(self, tmp_path):
        small = build_model(mini_config(), seed=7)
        other = build_model(mini_config(neck="pan"), seed=7)
        path = tmp_path / "w.drsi"
        save_weights(other, path)
        with pytest.raises(ArchiveError, match="missing=.*extra="):
            load_weights(small, path)


def _entries(model):
    """(name, dtype tag, rank, dims, payload) per parameter, in walk order."""
    return [(name, 0, len(p.logical_shape), p.logical_shape,
             p.value.numpy().astype("<f4").tobytes())
            for name, p in model.named_parameters()]


def _write_archive(path, entries, magic=b"DRSI", version=1):
    """The archive layout written field by field, so a test can break one."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<II", version, len(entries)))
        for name, tag, rank, dims, payload in entries:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)) + raw + struct.pack("<BB", tag, rank))
            fh.write(struct.pack(f"<{len(dims)}I", *dims) + payload)


def _with_last(entries, **fields):
    name, tag, rank, dims, payload = entries[-1]
    last = dict(name=name, tag=tag, rank=rank, dims=dims, payload=payload)
    last.update(fields)
    return entries[:-1] + [tuple(last.values())]


def _snapshot(model):
    return {name: p.value.numpy().tobytes() for name, p in model.named_parameters()}


class TestLoadFailsClosed:
    """Every check runs in the header pass, before any parameter changes; each
    fault sits in the archive's last entry where it has one, so every other
    entry would already be loaded by a reader that sets as it goes."""

    def _faults(self, entries):
        name, _, rank, dims, payload = entries[-1]
        wider = (dims[0] + 1,) + dims[1:]
        grown = payload + bytes(4 * math.prod(dims[1:]))
        return {
            "renamed": (_with_last(entries, name=name + "X"), {}, "missing=.*extra="),
            "missing": (entries[:-1], {}, r"missing=\[.*\], extra=\[\]"),
            "extra": (entries + [("extra.weight", 0, 1, (2,), bytes(8))], {},
                      r"missing=\[\], extra=\['extra.weight'\]"),
            "wrong shape": (_with_last(entries, dims=wider, payload=grown), {},
                            "shape mismatch"),
            "duplicate": (entries + entries[-1:], {}, "duplicate entry"),
            "bad magic": (entries, {"magic": b"NOPE"}, "bad magic"),
            "bad version": (entries, {"version": 2}, "unsupported archive version"),
            "bad tag": (_with_last(entries, tag=1), {}, "unknown dtype tag"),
            "bad rank": (_with_last(entries, rank=5), {}, "bad rank"),
            "truncated payload": (_with_last(entries, payload=payload[:-4]), {},
                                  "truncated archive while reading payload"),
        }

    def test_header_pass_faults_leave_every_parameter(self, tmp_path):
        entries = _entries(build_model(mini_config(), seed=0))
        model = build_model(mini_config(), seed=1)
        before = _snapshot(model)
        path = tmp_path / "w.drsi"
        for fault, (broken, header, message) in self._faults(entries).items():
            _write_archive(path, broken, **header)
            with pytest.raises(ArchiveError, match=message):
                load_weights(model, path)
            assert _snapshot(model) == before, fault

    def test_payload_pass_short_read_leaves_no_parameter(self, tmp_path, monkeypatch):
        """A payload the header pass saw whole can only read short if the file
        shrank between the passes: the model is left with no parameter set,
        so a forward refuses to run on a mix of old and new weights."""
        model = build_model(mini_config(), seed=1)
        path = tmp_path / "w.drsi"
        save_weights(build_model(mini_config(), seed=0), path)
        read_index = P._read_index

        def then_shrink(fh):
            index = read_index(fh)
            os.truncate(path, path.stat().st_size - 4)
            return index
        monkeypatch.setattr(P, "_read_index", then_shrink)
        last = list(dict(model.named_parameters()))[-1]
        with pytest.raises(ArchiveError, match=f"truncated archive while reading payload of '{last}'"):
            load_weights(model, path)
        for name, p in model.named_parameters():
            with pytest.raises(RuntimeError, match="not materialized"):
                p.value
        with pytest.raises(RuntimeError, match="not materialized"):
            model(tensor(np.zeros((1, 3, 64, 64), np.float32)))


def test_load_holds_the_model_plus_one_entry(tmp_path):
    """Loading a seed-0 archive into a built seed-1 drsinet-s peaks at most
    the largest payload (backbone.down5.conv.weight, 6.75 MB) plus 1 MB of
    traced allocations above the pre-load level: each entry is read into a
    fresh array that its parameter keeps, and the value it replaces is freed
    before the next entry is read.  Reading the whole archive before setting
    any parameter peaked at +52.8 MB."""
    cfg = ModelConfig(variant="s")
    path = tmp_path / "w.drsi"
    save_weights(build_model(cfg, seed=0), path)
    gc.collect()
    # started before the build, so the freed old values count as freed
    tracemalloc.start()
    try:
        model = build_model(cfg, seed=1)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        load_weights(model, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    sizes = {name: 4 * p.count() for name, p in model.named_parameters()}
    largest = max(sizes.values())
    assert sizes["backbone.down5.conv.weight"] == largest == 7_077_888
    assert peak <= largest + 2**20, peak
