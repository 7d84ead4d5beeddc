"""Model/training configuration and the flat ``key = value`` file format.

Files are UTF-8, one ``key = value`` pair per line, ``#`` starts a comment.
Unknown keys are rejected before any computation happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError

ATTENTION_VARIANTS = ("successive", "plain-cross", "self-on-concat")
SCM_VARIANTS = ("eq6", "eq7", "eq8")


@dataclass
class EncoderConfig:
    channels: tuple = (8, 16, 32, 64)
    height: int = 64
    width: int = 64

    def validate(self):
        if len(self.channels) != 4:
            raise ConfigError("encoder needs exactly 4 stage channel counts")
        if min(self.channels) < 1:
            raise ConfigError(f"stage channels must be >= 1: {self.channels}")
        if any(a >= b for a, b in zip(self.channels, self.channels[1:])):
            raise ConfigError(f"stage channels must strictly increase: {self.channels}")
        for dim, name in ((self.height, "height"), (self.width, "width")):
            if dim < 64 or dim % 64:
                raise ConfigError(
                    f"image {name} {dim} must be a positive multiple of 64")
        return self


@dataclass
class DecoderConfig:
    num_blocks: int = 4
    heads: tuple = (1, 1, 1)  # per output level 2, 3, 4
    attention_variant: str = "successive"
    scm_variant: str = "eq6"
    head_channels: int = 32
    num_classes: int = 4

    def validate(self):
        if self.num_blocks < 1:
            raise ConfigError("num_blocks must be >= 1")
        if len(self.heads) != 3:
            raise ConfigError("heads needs one entry per level (3 values)")
        if min(self.heads) < 1 or self.head_channels < 1:
            raise ConfigError("heads and head_channels must be >= 1")
        if self.attention_variant not in ATTENTION_VARIANTS:
            raise ConfigError(
                f"attention_variant must be one of {ATTENTION_VARIANTS}, "
                f"got {self.attention_variant!r}")
        if self.scm_variant not in SCM_VARIANTS:
            raise ConfigError(
                f"scm_variant must be one of {SCM_VARIANTS}, got {self.scm_variant!r}")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        return self


@dataclass
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 4
    base_lr: float = 3e-4
    weight_decay: float = 0.01
    seed: int = 0
    train_samples: int = 200
    val_samples: int = 32
    eval_interval: int = 200

    def validate(self):
        for name in ("iterations", "batch_size", "eval_interval",
                     "train_samples", "val_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.base_lr < float("inf"):
            raise ConfigError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not 0.0 <= self.weight_decay < float("inf"):
            raise ConfigError("weight_decay must be finite and >= 0")
        return self


@dataclass
class FullConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self):
        self.encoder.validate()
        self.decoder.validate()
        self.train.validate()
        # each level's heads split its attention query width evenly
        channels, dec = self.encoder.channels, self.decoder
        widths = ((sum(channels),) if dec.attention_variant == "self-on-concat"
                  else channels[1:])
        for heads, width in zip(dec.heads, widths):
            if width % heads:
                raise ConfigError(
                    f"{heads} heads do not divide the query width {width}")
        return self


def _int_list(raw: str) -> tuple:
    return tuple(int(v) for v in raw.split(","))


# key -> (section, field, parser): one key per field of FullConfig's
# sections, named after the field except where a rename says otherwise
_KEY_NAMES = {"height": "image_height", "width": "image_width",
              "channels": "encoder_channels"}
_PARSERS = {"int": int, "float": float, "str": str, "tuple": _int_list}
_SCHEMA = {_KEY_NAMES.get(f.name, f.name): (section.name, f.name, _PARSERS[f.type])
           for section in fields(FullConfig)
           for f in fields(section.default_factory)}


def parse_config_text(text: str) -> dict:
    """Parse config text into a raw {key: string} dict, rejecting unknown keys."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = raw
    return values


def build_config(values: dict, overrides: dict | None = None) -> FullConfig:
    """Apply raw string values (file, then overrides) onto the defaults."""
    cfg = FullConfig()
    merged = dict(values)
    if overrides:
        for key, raw in overrides.items():
            if key not in _SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = raw
    for key, raw in merged.items():
        section, name, parser = _SCHEMA[key]
        try:
            parsed = parser(raw)
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {raw!r}")
        target = getattr(cfg, section)
        setattr(cfg, section, replace(target, **{name: parsed}))
    return cfg.validate()


def load_config(path=None, overrides: dict | None = None) -> FullConfig:
    values = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
        values = parse_config_text(text)
    return build_config(values, overrides)
