"""Flat key=value run configuration.

All tunables live in one namespace-dotted key space with typed defaults;
unknown keys are rejected by name so config-file typos fail loudly, and
a value that does not parse as its key's type is rejected when set. A
config file holds one `key = value` pair per line, with # comments; the
same text, written by dumps(), is stored in every training checkpoint.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

from .errors import ConfigError
from .skge import parse_route

DEFAULTS: Dict[str, object] = {
    "backbone.input_size": 64,
    "backbone.patch": 4,
    "backbone.window": 4,
    "backbone.embed_dim": 24,
    "backbone.depths": "1,1,2,1",
    "backbone.heads": "2,4,8,16",
    "skge.route_a": "1->4",
    "skge.route_b": "1->4",
    "bev.size": 64,
    "bev.resolution_m": 0.25,
    "bev.use_lidar": 0,
    "train.lr": 1e-4,
    "train.weight_decay": 0.001,
    "train.batch_size": 8,
    "train.patience_lr": 3,
    "train.patience_stop": 15,
    "train.seed": 0,
}

# what a key accepts beyond its type; BackboneConfig checks backbone.*
DOMAINS: Dict[str, Tuple[str, Callable]] = {
    "bev.resolution_m": ("a finite value > 0", lambda v: math.isfinite(v) and v > 0),
    "bev.use_lidar": ("0 or 1", lambda v: v in (0, 1)),
    "train.lr": ("a finite value > 0", lambda v: math.isfinite(v) and v > 0),
    "train.weight_decay": ("a finite value >= 0", lambda v: math.isfinite(v) and v >= 0),
    "train.batch_size": ("an integer >= 1", lambda v: v >= 1),
    "train.patience_lr": ("an integer >= 1", lambda v: v >= 1),
    "train.patience_stop": ("an integer >= 1", lambda v: v >= 1),
    "train.seed": ("an integer >= 0", lambda v: v >= 0),
}


class RunConfig:
    """Typed flat config; item access by full dotted key."""

    def __init__(self):
        self._values = dict(DEFAULTS)

    def set(self, key: str, value) -> None:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        default = DEFAULTS[key]
        try:
            if isinstance(default, int):
                typed = int(value)
            elif isinstance(default, float):
                typed = float(value)
            elif key.startswith("skge.route_"):
                # canonical text, so "none" reads back as the "4" it builds
                typed = str(parse_route(str(value)))
            else:
                # backbone.depths / backbone.heads: one integer per stage
                typed = ",".join(str(int(v)) for v in str(value).split(","))
        except (TypeError, ValueError):
            raise ConfigError(f"bad value {value!r} for config key {key!r}") from None
        if key in DOMAINS and not DOMAINS[key][1](typed):
            raise ConfigError(f"bad value {value!r} for config key {key!r}: "
                              f"expected {DOMAINS[key][0]}")
        self._values[key] = typed

    def __getitem__(self, key: str):
        if key not in self._values:
            raise ConfigError(f"unknown config key {key!r}")
        return self._values[key]

    def dumps(self) -> str:
        """Every key as one `key = value` line; loads() reads it back."""
        return "".join(f"{key} = {value}\n" for key, value in self._values.items())

    def loads(self, text: str, origin: str = "<config>") -> "RunConfig":
        """Set every `key = value` line of text; origin names it in errors."""
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{origin}:{ln}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            self.set(key, value)
        return self

    def load_file(self, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError:
                raise ConfigError(f"{path}: not UTF-8 text") from None
        return self.loads(text, str(path))
