import pytest

from skgedrive.config import DEFAULTS, RunConfig
from skgedrive.errors import ConfigError

NON_DEFAULT = {
    "backbone.input_size": 32,
    "backbone.patch": 2,
    "backbone.window": 2,
    "backbone.embed_dim": 12,
    "backbone.depths": "2,2,2,2",
    "backbone.heads": "1,2,4,8",
    "skge.route_a": "1,2,3->4",
    "skge.route_b": "4->1",
    "bev.size": 32,
    "bev.resolution_m": 0.5,
    "bev.use_lidar": 1,
    "train.lr": 3e-4,
    "train.weight_decay": 0.01,
    "train.batch_size": 4,
    "train.patience_lr": 2,
    "train.patience_stop": 9,
    "train.seed": 5,
}


def test_dumps_loads_roundtrips_every_key():
    assert set(NON_DEFAULT) == set(DEFAULTS)
    cfg = RunConfig()
    for key, value in NON_DEFAULT.items():
        cfg.set(key, value)
    assert all(cfg[key] != DEFAULTS[key] for key in DEFAULTS)
    back = RunConfig().loads(cfg.dumps())
    for key, value in NON_DEFAULT.items():
        assert back[key] == value, key
        assert type(back[key]) is type(DEFAULTS[key]), key


def test_dumps_writes_one_line_per_key():
    lines = RunConfig().dumps().splitlines()
    assert [line.split(" = ")[0] for line in lines] == list(DEFAULTS)


def test_loads_skips_comments_and_names_the_bad_line():
    cfg = RunConfig().loads("# comment\n\ntrain.seed = 3  # trailing\n")
    assert cfg["train.seed"] == 3
    with pytest.raises(ConfigError, match="run.cfg:2: expected key=value"):
        RunConfig().loads("train.seed = 3\nnonsense\n", "run.cfg")


def test_route_keys_are_stored_canonically():
    cfg = RunConfig()
    cfg.set("skge.route_a", "none")
    assert cfg["skge.route_a"] == "4"
    cfg.set("skge.route_b", " 1,2,3->4 ")
    assert cfg["skge.route_b"] == "1,2,3->4"


def test_stage_lists_are_stored_as_integer_text():
    cfg = RunConfig()
    cfg.set("backbone.depths", " 2, 2,2 ,2")
    assert cfg["backbone.depths"] == "2,2,2,2"


@pytest.mark.parametrize("key, bad", [("backbone.depths", "1,x,2,1"),
                                      ("backbone.heads", "2,4,,16"),
                                      ("bev.use_lidar", 2), ("bev.use_lidar", "-1"),
                                      ("bev.resolution_m", "-1"), ("bev.resolution_m", 0),
                                      ("bev.resolution_m", "inf"), ("train.lr", "nan"),
                                      ("train.lr", 0), ("train.weight_decay", "-1e-3"),
                                      ("train.weight_decay", "nan"),
                                      ("train.batch_size", 0), ("train.patience_lr", 0),
                                      ("train.patience_stop", 0), ("train.seed", -1)])
def test_bad_value_fails_when_set(key, bad):
    with pytest.raises(ConfigError, match="bad value"):
        RunConfig().set(key, bad)


def test_values_at_the_edge_of_their_domain_are_kept():
    cfg = RunConfig()
    edges = {"train.weight_decay": 0.0, "train.seed": 0, "train.batch_size": 1,
             "train.patience_lr": 1, "train.patience_stop": 1, "train.lr": 1e-300,
             "bev.resolution_m": 1e-3}
    for key, value in edges.items():
        cfg.set(key, value)
        assert cfg[key] == value, key


@pytest.mark.parametrize("bad", ["4->4", "5", "1->"])
def test_bad_route_fails_when_set(bad):
    with pytest.raises(ConfigError, match="skip route|route target"):
        RunConfig().set("skge.route_a", bad)


def test_unknown_key_and_bad_value():
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig().set("backbone.variant", "desk")
    with pytest.raises(ConfigError, match="bad value"):
        RunConfig().set("train.seed", "x")


def test_a_config_file_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"train.seed = 3 # \xff\n")
    with pytest.raises(ConfigError, match="run.cfg: not UTF-8"):
        RunConfig().load_file(path)
    path.write_text("train.seed = 3 # café\n", encoding="utf-8")
    assert RunConfig().load_file(path)["train.seed"] == 3
