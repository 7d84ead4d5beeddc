import numpy as np
import pytest

from scaseg import (ConfigError, DataError, DecoderConfig, Encoder,
                    EncoderConfig, RandomSource, SegModel, Tensor)


def make_encoder(seed=0, **kwargs):
    return Encoder(EncoderConfig(**kwargs), RandomSource(seed))


class TestShapes:
    def test_desk_scale_pyramid(self):
        enc = make_encoder()
        p = enc(Tensor(np.random.default_rng(0).uniform(size=(2, 3, 64, 64))))
        expected = [(2, 8, 16, 16), (2, 16, 8, 8), (2, 32, 4, 4), (2, 64, 2, 2)]
        assert type(p) is tuple and [f.shape for f in p] == expected

    def test_full_scale_pyramid(self):
        enc = make_encoder(channels=(32, 64, 160, 256), height=512, width=512)
        p = enc(Tensor(np.zeros((1, 3, 512, 512))))
        assert [f.shape for f in p] == [
            (1, 32, 128, 128), (1, 64, 64, 64),
            (1, 160, 32, 32), (1, 256, 16, 16)]

    @pytest.mark.parametrize("hw", [(64, 128), (128, 64), (192, 256)])
    def test_rectangular_inputs(self, hw):
        H, W = hw
        p = make_encoder()(Tensor(np.zeros((1, 3, H, W))))
        for i, f in enumerate(p):
            assert f.shape[2:] == (H // 2 ** (i + 2), W // 2 ** (i + 2))


class TestValidation:
    def test_indivisible_input_rejected(self):
        with pytest.raises(DataError, match="64"):
            make_encoder()(Tensor(np.zeros((1, 3, 60, 64))))

    def test_non_increasing_channels_rejected(self):
        with pytest.raises(ConfigError):
            EncoderConfig(channels=(8, 8, 16, 32)).validate()

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(DataError):
            Encoder(EncoderConfig(), RandomSource(0))(
                Tensor(np.zeros((1, 4, 64, 64))))

    @pytest.mark.parametrize("shape,match", [
        ((1, 4, 64, 64), "B, 3, H, W"),
        ((0, 3, 64, 64), "B, H, W > 0"),
        ((1, 3, 0, 64), "B, H, W > 0"),
        ((1, 3, 96, 96), "96x96 must be divisible by 64")])
    @pytest.mark.parametrize("caller", ["encoder", "eval-model"])
    def test_bad_image_is_data_error(self, shape, match, caller):
        if caller == "encoder":
            fn = make_encoder()
        else:
            fn = SegModel(EncoderConfig(), DecoderConfig(), seed=0).eval()
        with pytest.raises(DataError, match=match):
            fn(Tensor(np.zeros(shape)))


class TestBehaviour:
    def test_deterministic_under_seed(self):
        x = np.random.default_rng(1).uniform(size=(1, 3, 64, 64))
        p1 = make_encoder(seed=7)(Tensor(x))
        p2 = make_encoder(seed=7)(Tensor(x))
        for a, b in zip(p1, p2):
            assert np.array_equal(a.data, b.data)

    def test_constant_image_gives_per_channel_constants(self):
        enc = make_encoder()
        enc.eval()
        p = enc(Tensor(np.full((1, 3, 256, 256), 0.5)))
        for f in p:
            # pixels outside the padding-contaminated border band are
            # constant per channel
            interior = f.data[0, :, 3:-3, 3:-3]
            assert interior.size > 0
            spread = np.abs(interior - interior.mean(axis=(1, 2), keepdims=True))
            assert spread.max() < 1e-10
