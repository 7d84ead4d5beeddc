import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scaseg
from scaseg import Tensor, load_tensor, save_tensor
from scaseg.cli import main, write_ppm

TINY = [
    "--set", "encoder_channels=4,8,12,16",
    "--set", "num_blocks=1",
    "--set", "head_channels=8",
]


class TestDescribe:
    def test_prints_totals(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "total" in out
        assert "decoder.head.classifier" in out

    def test_writes_csv(self, tmp_path, capsys):
        assert main(["describe", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "describe.csv").read_text().splitlines()
        assert lines[0] == "module,params,macs"
        assert lines[-1].startswith("total,")

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate = 0.1\n")
        assert main(["describe", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_value_exits_2(self, capsys):
        assert main(["describe", "--set", "num_blocks=many"]) == 2

    @pytest.mark.parametrize("error", [scaseg.UsageError, scaseg.ShapeError])
    def test_usage_and_shape_errors_exit_2(self, monkeypatch, capsys, error):
        def fail(_cfg):
            raise error("probe")
        monkeypatch.setattr(scaseg.cli, "cost_report", fail)
        assert main(["describe"]) == 2
        assert capsys.readouterr().err == "usage error: probe\n"

    @pytest.mark.parametrize("setting", [
        "image_height=0", "image_height=-64", "image_width=-128",
        "encoder_channels=0,1,2,3", "head_channels=0", "heads=0,1,1",
        "base_lr=nan", "base_lr=inf", "base_lr=0", "base_lr=-0.001",
        "weight_decay=-0.01", "weight_decay=nan", "seed=-1", "num_blocks=0",
        "heads=1,1", "num_classes=1"])
    def test_out_of_range_value_exits_2(self, capsys, setting):
        assert main(["describe", "--set", setting]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("args", [
        ["train", "--seed", "-1"], ["describe", "--set", "seed=-1"]])
    def test_negative_seed_exits_2(self, tmp_path, capsys, args):
        assert main(args + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("key", ["poly_power", "encoder_blocks_per_stage"])
    @pytest.mark.parametrize("source", ["file", "set"])
    def test_removed_key_exits_2(self, tmp_path, capsys, key, source):
        if source == "file":
            cfg = tmp_path / "old.cfg"
            cfg.write_text(f"{key} = 1\n")
            args = ["--config", str(cfg)]
        else:
            args = ["--set", f"{key}=1"]
        assert main(["describe"] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "unknown config key" in err

    @pytest.mark.parametrize("args", [
        ["describe", "--set", "heads=3,1,1"],
        ["describe", "--set", "attention_variant=self-on-concat",
         "--set", "heads=7,1,1"],
        ["ablate", "--axis", "attention", "--set", "heads=16,1,1"]])
    def test_heads_that_do_not_divide_the_width_exit_2(self, capsys, args):
        # successive widths are 16, 32, 64; self-on-concat's is 120
        assert main(args) == 2
        assert "heads do not divide" in capsys.readouterr().err

    def test_config_file_is_applied(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# comment line\nnum_blocks = 2\nhead_channels = 16\n")
        assert main(["describe", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "decoder.ase.blocks.1." in out
        assert "decoder.ase.blocks.2." not in out


class TestForward:
    def test_writes_logits_and_mask(self, tmp_path, capsys):
        img = np.random.default_rng(0).uniform(size=(3, 64, 64))
        inp = tmp_path / "image.tsr"
        save_tensor(inp, Tensor(img))
        assert main(["forward", str(inp), "--out", str(tmp_path)] + TINY) == 0
        logits = load_tensor(tmp_path / "logits.tsr")
        assert logits.shape == (1, 4, 64, 64)
        ppm = (tmp_path / "mask.ppm").read_bytes()
        assert ppm.startswith(b"P6\n64 64\n255\n")
        assert len(ppm) == len(b"P6\n64 64\n255\n") + 64 * 64 * 3

    def test_wrong_channel_count_exits_3(self, tmp_path, capsys):
        inp = tmp_path / "bad.tsr"
        save_tensor(inp, Tensor(np.zeros((4, 64, 64))))
        assert main(["forward", str(inp), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("size", [96, 32])
    def test_size_not_a_multiple_of_64_exits_3(self, tmp_path, capsys, size):
        inp = tmp_path / "image.tsr"
        save_tensor(inp, Tensor(np.zeros((3, size, size))))
        out = tmp_path / "out"
        assert main(["forward", str(inp), "--out", str(out)] + TINY) == 3
        assert f"{size}x{size} must be divisible by 64" in capsys.readouterr().err
        assert not (out / "logits.tsr").exists()

    @pytest.mark.parametrize("shape", [(3, 0, 64), (3, 64, 0), (0, 3, 64, 64)])
    def test_empty_image_exits_3(self, tmp_path, capsys, shape):
        inp = tmp_path / "empty.tsr"
        save_tensor(inp, Tensor(np.zeros(shape)))
        assert main(["forward", str(inp), "--out", str(tmp_path)]) == 3
        assert "H, W > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["all-nan", "one-inf"])
    def test_non_finite_image_exits_3(self, tmp_path, capsys, bad):
        img = np.random.default_rng(2).uniform(size=(3, 64, 64))
        if bad == "all-nan":
            img[...] = np.nan
        else:
            img[1, 5, 7] = np.inf
        inp = tmp_path / "image.tsr"
        save_tensor(inp, Tensor(img))
        out = tmp_path / "out"
        assert main(["forward", str(inp), "--out", str(out)] + TINY) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "logits.tsr").exists()

    def test_more_classes_than_palette_colours_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "image.tsr"
        save_tensor(inp, Tensor(np.zeros((3, 64, 64))))
        out = tmp_path / "out"
        assert main(["forward", str(inp), "--out", str(out),
                     "--set", "num_classes=13"] + TINY) == 2
        assert "12-colour" in capsys.readouterr().err
        assert not (out / "logits.tsr").exists()

    def test_checkpoint_changes_output(self, tmp_path, capsys):
        img = np.random.default_rng(1).uniform(size=(3, 64, 64))
        inp = tmp_path / "image.tsr"
        save_tensor(inp, Tensor(img))
        train_args = ["train", "--out", str(tmp_path),
                      "--set", "iterations=2", "--set", "batch_size=2",
                      "--set", "train_samples=4", "--set", "val_samples=2",
                      "--set", "eval_interval=2"] + TINY
        assert main(train_args) == 0
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["forward", str(inp), "--out", str(out_a)] + TINY) == 0
        assert main(["forward", str(inp), "--out", str(out_b),
                     "--checkpoint", str(tmp_path / "checkpoint.ckpt")]
                    + TINY) == 0
        a = load_tensor(out_a / "logits.tsr").data
        b = load_tensor(out_b / "logits.tsr").data
        assert not np.array_equal(a, b)

    def test_partial_checkpoint_exits_3(self, tmp_path, capsys):
        from scaseg import DecoderConfig, EncoderConfig, SegModel, save_checkpoint
        inp = tmp_path / "image.tsr"
        save_tensor(inp, Tensor(np.zeros((3, 64, 64))))
        model = SegModel(EncoderConfig(), DecoderConfig(), seed=0)
        ckpt = tmp_path / "partial.ckpt"
        save_checkpoint(ckpt, model.state()[:1])
        assert main(["forward", str(inp), "--out", str(tmp_path),
                     "--checkpoint", str(ckpt)]) == 3
        assert "lacks" in capsys.readouterr().err

    def test_checkpoint_with_a_conv_bn_bias_exits_3(self, tmp_path, capsys):
        # a checkpoint written while ConvBN convs carried a bias
        from scaseg import DecoderConfig, EncoderConfig, SegModel, save_checkpoint
        inp = tmp_path / "image.tsr"
        save_tensor(inp, Tensor(np.zeros((3, 64, 64))))
        state = SegModel(EncoderConfig(), DecoderConfig(), seed=0).state()
        ckpt = tmp_path / "old.ckpt"
        save_checkpoint(ckpt, [*state, ("encoder.stages.0.0.conv.bias",
                                        Tensor(np.zeros(8)))])
        assert main(["forward", str(inp), "--out", str(tmp_path),
                     "--checkpoint", str(ckpt)]) == 3
        assert "encoder.stages.0.0.conv.bias" in capsys.readouterr().err

    def test_checkpoint_entry_of_the_wrong_shape_exits_3(self, tmp_path,
                                                         capsys):
        from scaseg import DecoderConfig, EncoderConfig, SegModel, save_checkpoint
        inp = tmp_path / "image.tsr"
        save_tensor(inp, Tensor(np.zeros((3, 64, 64))))
        state = SegModel(EncoderConfig(), DecoderConfig(), seed=0).state()
        name = "decoder.head.classifier.bias"
        state = [(n, Tensor(np.zeros(5)) if n == name else t)
                 for n, t in state]
        ckpt = tmp_path / "reshaped.ckpt"
        save_checkpoint(ckpt, state)
        assert main(["forward", str(inp), "--out", str(tmp_path),
                     "--checkpoint", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert name in err and "shape (5,)" in err

    def test_repeated_checkpoint_entry_exits_3(self, tmp_path, capsys):
        from scaseg import DecoderConfig, EncoderConfig, SegModel, save_checkpoint
        inp = tmp_path / "image.tsr"
        save_tensor(inp, Tensor(np.zeros((3, 64, 64))))
        state = SegModel(EncoderConfig(), DecoderConfig(), seed=0).state()
        name, first = state[0]
        ckpt = tmp_path / "repeated.ckpt"
        save_checkpoint(ckpt, [*state, (name, Tensor(np.full(first.shape, 7.0)))])
        assert main(["forward", str(inp), "--out", str(tmp_path),
                     "--checkpoint", str(ckpt)]) == 3
        assert f"entry {name!r} is repeated" in capsys.readouterr().err
        assert not (tmp_path / "logits.tsr").exists()

    @pytest.mark.parametrize("target", ["image", "checkpoint"])
    def test_bytes_after_the_last_tensor_exit_3(self, tmp_path, capsys,
                                                target):
        from scaseg import DecoderConfig, EncoderConfig, SegModel, save_checkpoint
        inp = tmp_path / "image.tsr"
        save_tensor(inp, Tensor(np.zeros((3, 64, 64))))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, SegModel(EncoderConfig(), DecoderConfig(),
                                       seed=0).state())
        path = inp if target == "image" else ckpt
        path.write_bytes(path.read_bytes() + b"7 bytes")
        out = tmp_path / "out"
        assert main(["forward", str(inp), "--out", str(out),
                     "--checkpoint", str(ckpt)]) == 3
        assert "bytes after its last tensor" in capsys.readouterr().err
        assert not (out / "logits.tsr").exists()

    @pytest.mark.parametrize("name,value", [
        ("encoder.stages.0.0.bn.running_var", np.nan),
        ("encoder.stages.0.0.bn.running_var", -1.0),
        ("encoder.stages.0.0.conv.weight", np.inf)])
    def test_corrupt_checkpoint_entry_exits_3(self, tmp_path, capsys, name,
                                              value):
        from scaseg import DecoderConfig, EncoderConfig, SegModel, save_checkpoint
        inp = tmp_path / "image.tsr"
        save_tensor(inp, Tensor(np.zeros((3, 64, 64))))
        state = SegModel(EncoderConfig(), DecoderConfig(), seed=0).state()
        dict(state)[name].data.flat[0] = value
        ckpt = tmp_path / "corrupt.ckpt"
        save_checkpoint(ckpt, state)
        assert main(["forward", str(inp), "--out", str(tmp_path),
                     "--checkpoint", str(ckpt)]) == 3
        assert name in capsys.readouterr().err
        assert not (tmp_path / "logits.tsr").exists()


@pytest.mark.parametrize("case,code", [
    ("missing-config", 2), ("non-utf8-config", 2),
    ("missing-input", 3), ("missing-checkpoint", 3)])
def test_unreadable_file_exits_with_its_code(tmp_path, capsys, case, code):
    image = tmp_path / "image.tsr"
    save_tensor(image, Tensor(np.zeros((3, 64, 64))))
    bad_cfg = tmp_path / "latin1.cfg"
    bad_cfg.write_bytes("# caf\xe9\nnum_blocks = 1\n".encode("latin-1"))
    missing = str(tmp_path / "missing")
    args = {
        "missing-config": ["describe", "--config", missing],
        "non-utf8-config": ["describe", "--config", str(bad_cfg)],
        "missing-input": ["forward", missing, "--out", str(tmp_path)] + TINY,
        "missing-checkpoint": ["forward", str(image), "--out", str(tmp_path),
                               "--checkpoint", missing] + TINY,
    }[case]
    assert main(args) == code
    assert "cannot" in capsys.readouterr().err


@pytest.mark.parametrize("command,sub", [("describe", None), ("train", "sub")])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, command, sub):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    out = blocker if sub is None else blocker / sub
    assert main([command, "--out", str(out)] + TINY) == 2
    captured = capsys.readouterr()
    assert "usage error: cannot use --out" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command,target", [
    ("describe", "describe.csv"), ("train", "metrics.csv"),
    ("train", "checkpoint.ckpt"), ("forward", "logits.tsr")])
def test_out_target_that_is_a_directory_exits_2(tmp_path, capsys, command,
                                                target):
    out = tmp_path / "out"
    (out / target).mkdir(parents=True)
    image = tmp_path / "image.tsr"
    save_tensor(image, Tensor(np.zeros((3, 64, 64))))
    args = {"describe": ["describe"],
            "train": ["train", "--set", "iterations=2"],
            "forward": ["forward", str(image)]}[command]
    assert main(args + ["--out", str(out)] + TINY) == 2
    assert "it is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [target]


def test_unwritable_csv_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise PermissionError("permission denied")

    monkeypatch.setattr("builtins.open", refuse)
    assert main(["describe", "--out", str(tmp_path)]) == 2
    assert "permission denied" in capsys.readouterr().err


class TestTrain:
    def _run(self, tmp_path, name, seed):
        out = tmp_path / name
        args = ["train", "--out", str(out), "--seed", str(seed),
                "--set", "iterations=4", "--set", "batch_size=2",
                "--set", "train_samples=4", "--set", "val_samples=2",
                "--set", "eval_interval=2"] + TINY
        assert main(args) == 0
        return (out / "metrics.csv").read_bytes()

    def test_same_seed_metrics_are_byte_identical(self, tmp_path, capsys):
        a = self._run(tmp_path, "a", seed=0)
        b = self._run(tmp_path, "b", seed=0)
        assert a == b

    def test_different_seed_differs(self, tmp_path, capsys):
        a = self._run(tmp_path, "a", seed=0)
        c = self._run(tmp_path, "c", seed=1)
        assert a != c

    def test_reports_final_miou(self, tmp_path, capsys):
        self._run(tmp_path, "a", seed=0)
        assert "final val mIoU" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # one line, no warnings
    def test_non_finite_loss_exits_4(self, tmp_path, capsys):
        args = ["train", "--out", str(tmp_path), "--set", "base_lr=1e30",
                "--set", "iterations=30"]
        assert main(args) == 4
        assert capsys.readouterr().err == (
            "numerical failure: loss became non-finite at iteration 3\n")
        rows = (tmp_path / "metrics.csv").read_text().splitlines()
        assert rows[0] == "iter,lr,loss,miou"
        assert [row.split(",")[0] for row in rows[1:]] == ["0", "1", "2"]
        assert not (tmp_path / "checkpoint.ckpt").exists()

    @pytest.mark.parametrize("key", ["train_samples", "val_samples"])
    def test_empty_dataset_exits_2(self, tmp_path, capsys, key):
        args = ["train", "--out", str(tmp_path), "--set", "iterations=2",
                "--set", f"{key}=0"] + TINY
        assert main(args) == 2
        assert f"{key} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    def test_classes_that_cannot_all_show_exit_2(self, tmp_path, capsys):
        args = ["train", "--out", str(tmp_path), "--set", "iterations=1",
                "--set", "num_classes=12", "--set", "train_samples=3",
                "--set", "val_samples=1"] + TINY
        assert main(args) == 2
        assert "12 classes" in capsys.readouterr().err

    def test_blas_thread_count_does_not_change_bytes(self, tmp_path):
        # the thread count is set in each child's environment only; the
        # GEMMs (conv forward, weight and input gradients, resize, attention)
        # must not split a reduction across threads
        src = str(Path(scaseg.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "scaseg.cli", "train", "--out", str(out),
                 "--seed", "0", "--set", "iterations=20"],
                env=env, check=True, capture_output=True, timeout=600)
            outputs.append([(out / name).read_bytes()
                            for name in ("metrics.csv", "checkpoint.ckpt")])
        assert outputs[0] == outputs[1]


class TestGradcheck:
    def test_tiny_model_passes(self, capsys):
        args = ["gradcheck", "--samples", "1",
                "--set", "image_height=64", "--set", "image_width=64"] + TINY
        assert main(args) == 0
        assert "max relative error" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [("--eps", "-1"), ("--eps", "0"),
                                            ("--eps", "nan"),
                                            ("--samples", "-1")])
    def test_bad_probe_setting_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", flag, value] + TINY)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err


class TestAblate:
    def test_scm_axis_rows_identical(self, tmp_path, capsys):
        assert main(["ablate", "--axis", "scm", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "ablate_scm.csv").read_text().splitlines()
        assert lines[0] == "setting,params,macs"
        costs = {tuple(l.split(",")[1:]) for l in lines[1:]}
        assert len(lines) == 4 and len(costs) == 1

    def test_attention_axis_ordering(self, capsys):
        assert main(["ablate", "--axis", "attention"]) == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines()[1:]:
            name, params, macs = line.split()
            rows[name] = (int(params), int(macs))
        assert rows["successive"] == rows["plain-cross"]
        assert rows["self-on-concat"] > rows["successive"]

    def test_scm_train_scores_match_train_command(self, tmp_path, capsys):
        tiny_run = ["--set", "iterations=2", "--set", "batch_size=2",
                    "--set", "train_samples=4", "--set", "val_samples=2",
                    "--set", "eval_interval=2"] + TINY
        assert main(["ablate", "--axis", "scm", "--train"] + tiny_run) == 0
        scores = capsys.readouterr().out.split("setting,val_miou\n")[1]
        scores = dict(line.split(",") for line in scores.splitlines())
        assert list(scores) == ["eq6", "eq7", "eq8"]
        assert len(set(scores.values())) == 3  # each row trains its variant
        # eq6 is the default combiner, so ``train`` runs the same variant
        assert main(["train", "--out", str(tmp_path)] + tiny_run) == 0
        assert (f"final val mIoU {scores['eq6']} over 2 iterations"
                in capsys.readouterr().out)

    def test_variant_axis_row_order(self, capsys):
        assert main(["ablate", "--axis", "variant"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == [
            "plain-cross", "self-on-concat", "successive", "scm-eq6",
            "scm-eq7", "scm-eq8"]

    def test_blocks_axis_has_five_rows(self, capsys):
        assert main(["ablate", "--axis", "blocks"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6


class TestPpmWriter:
    def test_pixel_bytes_follow_palette(self, tmp_path):
        from scaseg.data import PALETTE
        mask = np.array([[0, 1], [2, 3]])
        path = tmp_path / "m.ppm"
        write_ppm(path, mask)
        data = path.read_bytes()
        header = b"P6\n2 2\n255\n"
        assert data.startswith(header)
        pixels = np.frombuffer(data[len(header):], dtype=np.uint8)
        expected = (PALETTE[mask.ravel()] * 255.0 + 0.5).astype(np.uint8)
        assert np.array_equal(pixels.reshape(4, 3), expected)
