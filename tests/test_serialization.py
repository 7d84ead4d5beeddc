import dataclasses
import hashlib
import io
import struct

import numpy as np
import pytest

from scaseg import (ConfigError, DataError, DecoderConfig, EncoderConfig,
                    SegModel, Tensor, load_checkpoint, load_tensor,
                    save_checkpoint, save_tensor, serialization)
from scaseg.config import (_SCHEMA, FullConfig, _int_list, build_config,
                           load_config, parse_config_text)
from scaseg.module import Module
from scaseg.serialization import read_tensor, write_tensor


class TestTensorFormat:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_preserves_values(self, tmp_path, dtype):
        arr = np.random.default_rng(0).normal(size=(2, 3, 4)).astype(dtype)
        path = tmp_path / "t.tsr"
        save_tensor(path, Tensor(arr))
        back = load_tensor(path)
        assert back.data.dtype == dtype
        assert np.array_equal(back.data, arr)

    def test_scalar_and_1d(self):
        for arr in (np.array(3.5), np.arange(5.0)):
            buf = io.BytesIO()
            write_tensor(buf, Tensor(arr))
            buf.seek(0)
            assert np.array_equal(read_tensor(buf).data, arr)

    def test_exact_byte_layout(self):
        buf = io.BytesIO()
        write_tensor(buf, Tensor(np.zeros((2, 3), dtype=np.float32)))
        raw = buf.getvalue()
        assert raw[:4] == b"SASF"
        version, rank = struct.unpack("<II", raw[4:12])
        assert (version, rank) == (1, 2)
        assert struct.unpack("<2Q", raw[12:28]) == (2, 3)
        assert raw[28] == 0  # float32 tag
        assert len(raw) == 29 + 6 * 4

    def test_bad_magic(self):
        with pytest.raises(DataError, match="magic"):
            read_tensor(io.BytesIO(b"NOPE" + bytes(40)))

    def test_bad_version(self):
        buf = io.BytesIO()
        write_tensor(buf, Tensor(np.zeros(2)))
        raw = bytearray(buf.getvalue())
        raw[4] = 9
        with pytest.raises(DataError, match="version"):
            read_tensor(io.BytesIO(bytes(raw)))

    def test_truncated_payload(self):
        buf = io.BytesIO()
        write_tensor(buf, Tensor(np.zeros(8)))
        with pytest.raises(DataError, match="truncated"):
            read_tensor(io.BytesIO(buf.getvalue()[:-4]))

    def test_unknown_dtype_tag(self):
        buf = io.BytesIO()
        write_tensor(buf, Tensor(np.zeros(1)))
        raw = bytearray(buf.getvalue())
        raw[20] = 7  # tag byte for a rank-1 tensor
        with pytest.raises(DataError, match="dtype"):
            read_tensor(io.BytesIO(bytes(raw)))

    def test_overflowing_dims(self, tmp_path):
        # 2**32 * 2**32 elements wrap to 0 in int64; with no payload this
        # must still be a DataError, from load_tensor and from the CLI
        from scaseg.cli import main
        path = tmp_path / "huge.tsr"
        path.write_bytes(b"SASF" + struct.pack("<II2QB", 1, 2, 2**32, 2**32, 1))
        with pytest.raises(DataError, match="payload"):
            load_tensor(path)
        assert main(["forward", str(path), "--out", str(tmp_path)]) == 3
        # no payload is also right for a zero dim, but numpy cannot hold 2**63
        path.write_bytes(b"SASF" + struct.pack("<II2QB", 1, 2, 0, 2**63, 1))
        with pytest.raises(DataError, match="dims"):
            load_tensor(path)

    def test_rank_larger_than_the_bytes_left(self):
        raw = b"SASF" + struct.pack("<II", 1, 2**31) + bytes(16)
        with pytest.raises(DataError, match="dims"):
            read_tensor(io.BytesIO(raw))


class TestCheckpointFormat:
    def test_round_trip_preserves_names_order_values(self, tmp_path):
        g = np.random.default_rng(1)
        items = [("b.weight", Tensor(g.normal(size=(3, 3)))),
                 ("a.bias", Tensor(g.normal(size=3)))]
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, items)
        back = load_checkpoint(path)
        assert [n for n, _ in back] == ["b.weight", "a.bias"]
        for (_, x), (_, y) in zip(items, back):
            assert np.array_equal(x.data, y.data)

    def test_empty_checkpoint(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        save_checkpoint(path, [])
        assert load_checkpoint(path) == []

    def test_truncated_header(self, tmp_path):
        # a cut at any byte, in the name table, a tensor header or a
        # payload, and a name that is not UTF-8, are each a DataError,
        # never a struct or decode error
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, [("w", Tensor(np.ones((2, 3)))),
                               ("b", Tensor(np.zeros(2, dtype=np.float32)))])
        raw = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for cut in range(len(raw)):
            bad.write_bytes(raw[:cut])
            with pytest.raises(DataError):
                load_checkpoint(bad)
        bad.write_bytes(struct.pack("<II", 1, 1) + b"\xff")
        with pytest.raises(DataError, match="UTF-8"):
            load_checkpoint(bad)


    def test_every_flipped_byte_loads_or_raises_data_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, [("w", Tensor(np.ones((2, 3)))),
                               ("b", Tensor(np.zeros(2, dtype=np.float32)))])
        raw = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= 0xFF
            bad.write_bytes(bytes(flipped))
            try:
                load_checkpoint(bad)
            except DataError:
                pass

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "m.ckpt"
        items = [("w", Tensor(np.ones((2, 3)))), ("b", Tensor(np.zeros(2)))]
        save_checkpoint(path, items)
        before = path.read_bytes()
        calls = []
        real_write = serialization.write_tensor

        def failing_write(fh, t):
            calls.append(t)
            if len(calls) == 2:
                raise OSError("disk full")
            real_write(fh, t)

        monkeypatch.setattr(serialization, "write_tensor", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, [(n, t * 2.0) for n, t in items])
        assert path.read_bytes() == before
        assert [n for n, _ in load_checkpoint(path)] == ["w", "b"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


class TestConfigParsing:
    def test_comments_and_blank_lines(self):
        text = "# full line comment\n\nnum_blocks = 2  # trailing\n"
        assert parse_config_text(text) == {"num_blocks": "2"}

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("num_blocks = 2\nmomentum = 0.9\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_values_reach_the_right_sections(self):
        cfg = build_config({"num_blocks": "3", "base_lr": "0.002",
                            "encoder_channels": "4, 8, 12, 16"})
        assert cfg.decoder.num_blocks == 3
        assert cfg.train.base_lr == 0.002
        assert cfg.encoder.channels == (4, 8, 12, 16)

    def test_schema_rows_match_config_fields(self):
        cfg = FullConfig()
        fields = sorted((section.name, f.name) for section in dataclasses.fields(cfg)
                        for f in dataclasses.fields(getattr(cfg, section.name)))
        rows = sorted((section, name) for section, name, _ in _SCHEMA.values())
        assert rows == fields
        for key in ("ase_embed_dim", "attention_bias", "poly_power",
                    "encoder_blocks_per_stage"):
            with pytest.raises(ConfigError, match="unknown config key"):
                parse_config_text(f"{key} = 16\n")
            with pytest.raises(ConfigError, match="unknown config key"):
                build_config({}, {key: "16"})

    def test_keys_and_parsers_are_pinned(self):
        assert _SCHEMA == {
            "image_height": ("encoder", "height", int),
            "image_width": ("encoder", "width", int),
            "encoder_channels": ("encoder", "channels", _int_list),
            "num_blocks": ("decoder", "num_blocks", int),
            "heads": ("decoder", "heads", _int_list),
            "attention_variant": ("decoder", "attention_variant", str),
            "scm_variant": ("decoder", "scm_variant", str),
            "head_channels": ("decoder", "head_channels", int),
            "num_classes": ("decoder", "num_classes", int),
            "iterations": ("train", "iterations", int),
            "batch_size": ("train", "batch_size", int),
            "base_lr": ("train", "base_lr", float),
            "weight_decay": ("train", "weight_decay", float),
            "seed": ("train", "seed", int),
            "train_samples": ("train", "train_samples", int),
            "val_samples": ("train", "val_samples", int),
            "eval_interval": ("train", "eval_interval", int),
        }

    def test_bad_typed_value(self):
        with pytest.raises(ConfigError, match="num_blocks"):
            build_config({"num_blocks": "four"})

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"scm_variant": "eq9"})
        with pytest.raises(ConfigError):
            build_config({"encoder_channels": "8,16,32"})

    def test_overrides_beat_file_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("num_blocks = 2\nseed = 5\n")
        cfg = load_config(path, {"num_blocks": "4"})
        assert cfg.decoder.num_blocks == 4
        assert cfg.train.seed == 5


def _modules(value):
    """Every Module reachable from ``value`` through attributes and lists."""
    if isinstance(value, Module):
        yield value
        for v in vars(value).values():
            yield from _modules(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _modules(v)


class TestModuleWalk:
    def test_state_names_and_order_are_pinned(self):
        # checkpoints store entries in this order; a change breaks old files
        names = [name for name, _ in
                 SegModel(EncoderConfig(), DecoderConfig(), seed=0).state()]
        assert len(names) == 356
        assert names[0] == "encoder.stages.0.0.conv.weight"
        assert names[-1] == "decoder.head.fuse.bn.running_var"
        assert hashlib.sha256("\n".join(names).encode()).hexdigest() == (
            "0b604586a0e5a7c4e5e7bf31c546a529ecb7875623e512db530132f6d7769b32")

    def test_eval_and_train_reach_every_nested_module(self):
        model = SegModel(EncoderConfig(), DecoderConfig(), seed=0)
        modules = list(_modules(model))
        assert len(modules) > 100
        assert model.eval() is model
        assert not any(m.training for m in modules)
        assert model.train() is model
        assert all(m.training for m in modules)
