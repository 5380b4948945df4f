"""End-to-end driving model.

Forward path: RGB -> encoder A -> skip fusion -> segmentation decoder;
predicted classes + decoded depth -> top-down semantic grid -> encoder B
-> skip fusion at the route target (the control bottleneck) -> pooled
feature -> recurrent controller emitting waypoints, controls, and the
traffic-light / stop-sign probabilities. The grid construction is
discrete (argmax), so encoder A learns through the segmentation loss
while encoder B and the controller learn through the control losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .backbone import BackboneConfig, SwinEncoder
from .controller import Controller, ControlOutput, global_to_local
from .data import Sample, decode_depth
from .errors import ConfigError
from .heads import (BevConfig, CameraConfig, NUM_CLASSES, SegDecoder, build_sdc,
                    lidar_bev, seg_argmax)
from .skge import SkipFusion, SkipRoute, parse_route

_NO_POINTS = np.zeros((4, 0), dtype=np.float32)


@dataclass
class ModelOutput(ControlOutput):
    seg_logits: Tensor        # (B, 23, H, W)


class DrivingModel(nn.Module):
    def __init__(self, backbone: BackboneConfig, route_a: SkipRoute,
                 route_b: SkipRoute, bev: BevConfig, use_lidar: bool,
                 rng: np.random.Generator):
        if bev.size != backbone.input_size:
            raise ConfigError(f"bev size {bev.size} must match backbone input size "
                              f"{backbone.input_size}")
        self.route_a = route_a
        self.route_b = route_b
        self.bev = bev
        self.input_size = backbone.input_size
        self.cam = CameraConfig.for_image(backbone.input_size, backbone.input_size)
        self.use_lidar = use_lidar

        self.enc_a = SwinEncoder(backbone, 3, rng)
        self.fuse_a = SkipFusion(route_a, backbone.stage_channels, rng)
        self.decoder = SegDecoder(backbone, rng)
        in_b = NUM_CLASSES + (2 if use_lidar else 0)
        self.enc_b = SwinEncoder(backbone, in_b, rng)
        self.fuse_b = SkipFusion(route_b, backbone.stage_channels, rng)
        self.controller = Controller(backbone.stage_channels(route_b.target), rng=rng)

    def forward(self, batch: Dict[str, np.ndarray]) -> ModelOutput:
        shape, s = np.shape(batch["rgb"]), self.input_size
        if shape[1:] != (3, s, s):
            raise ConfigError(f"images of shape {shape[1:]} for a model of input size {s}, "
                              f"which needs (3, {s}, {s})")
        dtype = self.decoder.head.weight.dtype
        rgb = Tensor(np.asarray(batch["rgb"], dtype=dtype) / 255.0)
        feats_a = self.enc_a.forward_stages(rgb)
        feats_a[self.route_a.target] = self.fuse_a.fuse(feats_a)
        seg_logits = self.decoder(feats_a)

        cls = seg_argmax(seg_logits.data)
        channels = [build_sdc(cls, batch["depth_m"], self.cam, self.bev)]
        if self.use_lidar:
            channels.append(np.stack([lidar_bev(pts, self.bev) for pts in batch["lidar"]]))
        sdc = Tensor(np.concatenate(channels, axis=1).astype(dtype))

        feats_b = self.enc_b.forward_stages(sdc)
        tap = self.fuse_b.fuse(feats_b)
        pooled = ad.mean(tap, axis=(1, 2))

        route_local = Tensor(np.asarray(batch["route_local"], dtype=dtype))
        speed = Tensor(np.asarray(batch["speed"], dtype=dtype))
        ctrl = self.controller(pooled, route_local, speed)
        return ModelOutput(seg_logits=seg_logits, **vars(ctrl))


def make_batch(samples: List[Sample]) -> Dict[str, np.ndarray]:
    """Stack Samples into the numpy batch dict the model consumes.

    "lidar" is a list of each sample's raw (4, N) points, N = 0 when it
    has none; a lidar model bins them onto its own top-down grid.
    """
    rgb = np.stack([s.rgb for s in samples])
    depth_m = np.stack([decode_depth(s.depth_rgb) for s in samples])
    route_local = np.stack([global_to_local(s.route_point, s.ego()) for s in samples])
    speed = np.array([[s.speed] for s in samples], dtype=np.float64)
    return {
        "rgb": rgb, "depth_m": depth_m, "route_local": route_local, "speed": speed,
        "seg_gt": np.stack([s.seg_gt for s in samples]),
        "waypoints_gt": np.stack([s.waypoints_gt for s in samples]),
        "controls_gt": np.stack([s.controls_gt for s in samples]),
        "tl_gt": np.array([[s.tl_gt] for s in samples], dtype=np.float64),
        "ss_gt": np.array([[s.ss_gt] for s in samples], dtype=np.float64),
        "lidar": [s.lidar if s.lidar is not None else _NO_POINTS for s in samples],
    }


def build_model(cfg, rng: np.random.Generator) -> DrivingModel:
    """Construct a DrivingModel from a RunConfig."""
    backbone = BackboneConfig(
        input_size=cfg["backbone.input_size"],
        patch_size=cfg["backbone.patch"],
        window_size=cfg["backbone.window"],
        embed_dim=cfg["backbone.embed_dim"],
        depths=tuple(int(x) for x in cfg["backbone.depths"].split(",")),
        heads=tuple(int(x) for x in cfg["backbone.heads"].split(",")),
    )
    bev = BevConfig(size=cfg["bev.size"], resolution_m=cfg["bev.resolution_m"])
    return DrivingModel(backbone, parse_route(cfg["skge.route_a"]),
                        parse_route(cfg["skge.route_b"]), bev,
                        use_lidar=bool(cfg["bev.use_lidar"]), rng=rng)
