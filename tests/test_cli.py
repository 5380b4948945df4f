import json
import struct

import numpy as np
import pytest

from skgedrive.checkpoint import MAGIC, VERSION, read_records, save_model, write_records
from skgedrive.cli import REPORT_FIELDS, _load_model_from_ckpt, evaluate_dataset, main
from skgedrive.config import RunConfig
from skgedrive.data import load_dataset, synth_scene
from skgedrive.model import build_model
from skgedrive.scoring import DriveLog, write_drive_log


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_field_names():
    assert REPORT_FIELDS == ("ss_metric", "wp_metric", "str_metric",
                             "thr_metric", "brk_metric", "redl_metric",
                             "stops_metric")


def test_gen_writes_loadable_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    code, stdout, _ = _run(capsys, "gen", "--out", str(out),
                           "--count", "3", "--seed", "5")
    assert code == 0
    assert "3 samples" in stdout
    samples = load_dataset(out)
    assert len(samples) == 3
    want = synth_scene(5)
    np.testing.assert_array_equal(samples[0].rgb, want.rgb)


def test_gen_rejects_bad_count(tmp_path, capsys):
    code, _, stderr = _run(capsys, "gen", "--out", str(tmp_path / "d"),
                           "--count", "0")
    assert code == 2
    assert "config error" in stderr


def test_env_seed_overrides_flag(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a"
    b = tmp_path / "b"
    monkeypatch.setenv("SKGE_SEED", "11")
    _run(capsys, "gen", "--out", str(a), "--count", "1", "--seed", "999")
    monkeypatch.delenv("SKGE_SEED")
    _run(capsys, "gen", "--out", str(b), "--count", "1", "--seed", "11")
    sa, sb = load_dataset(a)[0], load_dataset(b)[0]
    np.testing.assert_array_equal(sa.rgb, sb.rgb)


def test_train_then_eval_roundtrip(tmp_path, capsys):
    data = tmp_path / "data"
    _run(capsys, "gen", "--out", str(data), "--count", "4", "--seed", "0")
    ckpt = tmp_path / "model.ckpt"
    code, stdout, _ = _run(capsys, "train", "--data", str(data),
                           "--out", str(ckpt), "--epochs", "1",
                           "--seed", "0", "--skge-route", "1->4")
    assert code == 0
    assert "trained 1 epochs" in stdout
    assert ckpt.exists()
    assert (tmp_path / "model.ckpt.metrics.ndjson").exists()

    code, stdout, _ = _run(capsys, "eval", "--data", str(data),
                           "--ckpt", str(ckpt))
    assert code == 0
    for field in REPORT_FIELDS + ("test_metric",):
        assert f"{field}=" in stdout


def test_train_with_config_file_then_eval(tmp_path, capsys):
    data = tmp_path / "data"
    _run(capsys, "gen", "--out", str(data), "--count", "3", "--seed", "0")
    config = tmp_path / "run.cfg"
    config.write_text("# narrower encoders\nbackbone.embed_dim = 12\n")
    ckpt = tmp_path / "model.ckpt"
    code, _, stderr = _run(capsys, "train", "--data", str(data), "--out", str(ckpt),
                           "--config", str(config), "--epochs", "1",
                           "--skge-route", "1,2,3->4")
    assert code == 0, stderr
    model, cfg = _load_model_from_ckpt(ckpt)
    assert cfg["backbone.embed_dim"] == 12
    assert str(model.route_a) == str(model.route_b) == "1,2,3->4"

    code, stdout, stderr = _run(capsys, "eval", "--data", str(data), "--ckpt", str(ckpt))
    assert code == 0, stderr
    for field in REPORT_FIELDS + ("test_metric",):
        assert f"{field}=" in stdout


def test_eval_without_config_record_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    _run(capsys, "gen", "--out", str(data), "--count", "1")
    ckpt = tmp_path / "bare.ckpt"
    save_model(ckpt, build_model(RunConfig(), np.random.default_rng(0)))
    code, _, stderr = _run(capsys, "eval", "--data", str(data), "--ckpt", str(ckpt))
    assert code == 2
    assert "'config' record" in stderr


def test_train_rejects_missing_dataset(tmp_path, capsys):
    code, _, stderr = _run(capsys, "train", "--data", str(tmp_path / "nope"),
                           "--out", str(tmp_path / "m.ckpt"), "--epochs", "1")
    assert code == 4
    assert "corrupt data" in stderr


def test_train_rejects_bad_route(tmp_path, capsys):
    data = tmp_path / "data"
    _run(capsys, "gen", "--out", str(data), "--count", "1")
    code, _, stderr = _run(capsys, "train", "--data", str(data),
                           "--out", str(tmp_path / "m.ckpt"),
                           "--epochs", "1", "--skge-route", "4->4")
    assert code == 2
    assert "config error" in stderr


@pytest.mark.parametrize("line", ["backbone.depths = 1,x,2,1", "bev.use_lidar = 2",
                                  "train.batch_size = 0", "train.patience_lr = 0",
                                  "train.patience_stop = 0", "train.lr = nan",
                                  "train.weight_decay = -1", "bev.resolution_m = -1",
                                  "train.seed = -1"])
def test_train_rejects_bad_config_value(tmp_path, capsys, line):
    data = tmp_path / "data"
    _run(capsys, "gen", "--out", str(data), "--count", "1")
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    code, _, stderr = _run(capsys, "train", "--data", str(data), "--config", str(config),
                           "--out", str(tmp_path / "m.ckpt"), "--epochs", "1")
    assert code == 2
    assert "config error" in stderr and "bad value" in stderr


@pytest.mark.parametrize("command", ["gen", "train"])
def test_non_integer_env_seed_exits_2(tmp_path, capsys, monkeypatch, command):
    data = tmp_path / "data"
    _run(capsys, "gen", "--out", str(data), "--count", "1")
    monkeypatch.setenv("SKGE_SEED", "abc")
    argv = {"gen": ["--out", str(tmp_path / "d2"), "--count", "1"],
            "train": ["--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                      "--epochs", "1"]}[command]
    code, _, stderr = _run(capsys, command, *argv)
    assert code == 2
    assert "SKGE_SEED" in stderr


@pytest.mark.parametrize("header, entry", [("x", "0 000000.rec 0"),
                                           ("1", "x 000000.rec 0"),
                                           ("1", "0 000000.rec x")])
def test_train_on_manifest_with_bad_integer_exits_4(tmp_path, capsys, header, entry):
    data = tmp_path / "data"
    _run(capsys, "gen", "--out", str(data), "--count", "1")
    (data / "manifest.txt").write_text(f"skge-dataset 1 {header} classtable=1\n{entry}\n")
    code, _, stderr = _run(capsys, "train", "--data", str(data),
                           "--out", str(tmp_path / "m.ckpt"), "--epochs", "1")
    assert code == 4
    assert "manifest.txt" in stderr and "'x'" in stderr


@pytest.mark.parametrize("line", [
    '{"route_id": "a", "kind": "step", "x": "abc", "y": 0, "on_road": true, '
    '"infraction_type": "", "route_length": 10}',
    '{"route_id": "a", "kind": "step", "x": 0, "y": 0, "on_road": true, '
    '"infraction_type": "", "route_length": null}',
    "5",
    '{"route_id": [1], "kind": "step", "x": 0, "y": 0, "on_road": true, '
    '"infraction_type": "", "route_length": 10}',
    '{"route_id": null, "kind": "step", "x": 0, "y": 0, "on_road": true, '
    '"infraction_type": "", "route_length": 10}',
])
def test_score_log_with_bad_record_exits_4(tmp_path, capsys, line):
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "bad.ndjson").write_text(line + "\n")
    code, _, stderr = _run(capsys, "score", "--logs", str(logs))
    assert code == 4
    assert "bad.ndjson:1:" in stderr


@pytest.mark.parametrize("value", ['"false"', "0", "1", "null"])
def test_score_log_whose_on_road_is_not_a_boolean_exits_4(tmp_path, capsys, value):
    logs = tmp_path / "logs"
    logs.mkdir()
    step = '{"route_id": "a", "kind": "step", "x": %s, "y": 0, "on_road": %s, ' \
           '"infraction_type": ""%s}\n'
    (logs / "a.ndjson").write_text(step % (0, value, ', "route_length": 10')
                                   + step % (10, value, ""))
    code, stdout, stderr = _run(capsys, "score", "--logs", str(logs))
    assert code == 4
    assert f"a.ndjson:1: on_road is not a boolean: {json.loads(value)!r}" in stderr
    assert stdout == ""


def test_score_command(tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    write_drive_log(logs / "a.ndjson", DriveLog(
        route_id="a", total_route_length=10.0,
        steps=[(0, 0, True), (10, 0, True)], infractions=[]))
    write_drive_log(logs / "b.ndjson", DriveLog(
        route_id="b", total_route_length=10.0,
        steps=[(0, 0, True), (5, 0, True)], infractions=["ped"]))
    code, stdout, _ = _run(capsys, "score", "--logs", str(logs))
    assert code == 0
    assert "driving_score=62.5000" in stdout
    # aggregate product vs mean-of-products caveat: 75 * 0.75 = 56.25
    assert "mean_rc x mean_ip = 56.2500" in stdout


def test_score_corrupt_log_exits_4(tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "bad.ndjson").write_text("{broken\n")
    code, _, stderr = _run(capsys, "score", "--logs", str(logs))
    assert code == 4
    assert "corrupt data" in stderr


def test_score_missing_dir_exits_2(tmp_path, capsys):
    code, _, _ = _run(capsys, "score", "--logs", str(tmp_path / "absent"))
    assert code == 2


def test_bench_reports_fps(tmp_path, capsys):
    data = tmp_path / "data"
    _run(capsys, "gen", "--out", str(data), "--count", "2")
    ckpt = tmp_path / "m.ckpt"
    _run(capsys, "train", "--data", str(data), "--out", str(ckpt),
         "--epochs", "1", "--seed", "0")
    code, stdout, _ = _run(capsys, "bench", "--ckpt", str(ckpt),
                           "--iters", "2")
    assert code == 0
    assert "fps=" in stdout and "peak_rss_mb=" in stdout


def test_evaluate_dataset_report_is_json_ready():
    samples = [synth_scene(i) for i in range(2)]
    cfg = RunConfig()
    model = build_model(cfg, np.random.default_rng(0))
    report = evaluate_dataset(model, cfg, samples)
    assert set(report) == set(REPORT_FIELDS) | {"test_metric"}
    json.dumps(report)
    assert 0.0 <= report["ss_metric"] <= 1.0
    assert 0.0 <= report["redl_metric"] <= 1.0
    assert report["test_metric"] > 0.0

def _eval_ckpt_bytes(tmp_path, capsys, payload: bytes):
    data = tmp_path / "data"
    _run(capsys, "gen", "--out", str(data), "--count", "1")
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(payload)
    return _run(capsys, "eval", "--data", str(data), "--ckpt", str(ckpt))


def test_eval_checkpoint_with_non_utf8_record_name_exits_4(tmp_path, capsys):
    good = tmp_path / "good.ckpt"
    write_records(good, {"ab": np.zeros(2)})
    code, _, stderr = _eval_ckpt_bytes(tmp_path, capsys,
                                       good.read_bytes().replace(b"ab", b"\xff\xfe"))
    assert code == 4
    assert "bad.ckpt" in stderr and "not UTF-8" in stderr


def test_eval_checkpoint_whose_extents_overflow_int64_exits_4(tmp_path, capsys):
    # 2**16 four times is 2**64 elements, which int64 arithmetic wraps to 0
    header = MAGIC + struct.pack("<I", VERSION)
    record = struct.pack("<I", 1) + b"w" + struct.pack("<5I", 4, *[2 ** 16] * 4)
    code, _, stderr = _eval_ckpt_bytes(tmp_path, capsys, header + record)
    assert code == 4
    assert "bad.ckpt" in stderr and "payload of w" in stderr


def test_train_on_non_utf8_manifest_exits_4(tmp_path, capsys):
    data = tmp_path / "data"
    _run(capsys, "gen", "--out", str(data), "--count", "1")
    (data / "manifest.txt").write_bytes(b"skge-dataset 1 1 classtable=1\n0 000000.rec \xff\n")
    code, _, stderr = _run(capsys, "train", "--data", str(data),
                           "--out", str(tmp_path / "m.ckpt"), "--epochs", "1")
    assert code == 4
    assert "manifest.txt" in stderr and "not UTF-8" in stderr


@pytest.mark.parametrize("line, message", [
    (b'{"route_id": "a", "kind": "step", "x": 0, "y": 0, "on_road": true, '
     b'"infraction_type": "\xff", "route_length": 10}', "not UTF-8"),
    (b'{"route_id": "a", "kind": "infraction", "x": 0, "y": 0, "on_road": false, '
     b'"infraction_type": ["ped"], "route_length": 10}', "infraction_type"),
])
def test_score_log_with_undecodable_or_unhashable_field_exits_4(tmp_path, capsys, line,
                                                                message):
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "bad.ndjson").write_bytes(line + b"\n")
    code, _, stderr = _run(capsys, "score", "--logs", str(logs))
    assert code == 4
    assert "bad.ndjson" in stderr and message in stderr


@pytest.mark.parametrize("name, bad", [
    ("flags", np.zeros(1)),
    ("speed", np.zeros(0)),
    ("rgb", np.zeros((64, 64))),
    ("route_point", np.zeros(3)),
    ("ego_pos", np.zeros(1)),
    ("controls", np.zeros(4)),
])
def test_train_on_a_sample_record_of_the_wrong_shape_exits_4(tmp_path, capsys, name, bad):
    data = tmp_path / "data"
    _run(capsys, "gen", "--out", str(data), "--count", "1")
    arrays = read_records(data / "000000.rec")
    arrays[name] = bad
    write_records(data / "000000.rec", arrays)
    code, _, stderr = _run(capsys, "train", "--data", str(data),
                           "--out", str(tmp_path / "m.ckpt"), "--epochs", "1")
    assert code == 4
    assert f"000000.rec: record {name} has shape {bad.shape}" in stderr


@pytest.fixture
def one_sample(tmp_path, capsys):
    data = tmp_path / "data"
    _run(capsys, "gen", "--out", str(data), "--count", "1")
    return data


@pytest.mark.parametrize("command", ["eval", "bench"])
def test_a_missing_checkpoint_exits_2_and_names_it(tmp_path, capsys, one_sample, command):
    missing = tmp_path / "absent.ckpt"
    argv = {"eval": ["--data", str(one_sample)], "bench": ["--iters", "1"]}[command]
    code, _, stderr = _run(capsys, command, "--ckpt", str(missing), *argv)
    assert code == 2
    assert str(missing) in stderr


@pytest.mark.parametrize("flag", ["--resume", "--config"])
def test_train_from_a_missing_file_exits_2_and_names_it(tmp_path, capsys, one_sample, flag):
    missing = tmp_path / "absent"
    code, _, stderr = _run(capsys, "train", "--data", str(one_sample), "--epochs", "1",
                           "--out", str(tmp_path / "m.ckpt"), flag, str(missing))
    assert code == 2
    assert str(missing) in stderr
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("flag", ["--out", "--metrics"])
@pytest.mark.parametrize("bad", ["absent/file", "a_directory"])
def test_train_to_an_unwritable_path_exits_2_before_reading_data(tmp_path, capsys, flag, bad):
    # --data names no dataset: the path check must come first to exit 2, not 4
    (tmp_path / "a_directory").mkdir()
    paths = {"--out": str(tmp_path / "m.ckpt"), "--metrics": str(tmp_path / "m.ndjson")}
    paths[flag] = str(tmp_path / bad)
    code, _, stderr = _run(capsys, "train", "--data", str(tmp_path / "nodata"),
                           "--epochs", "1", "--out", paths["--out"],
                           "--metrics", paths["--metrics"])
    assert code == 2
    assert f"{flag} {tmp_path / bad}" in stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory"]


def test_gen_onto_an_existing_file_exits_2(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    code, _, stderr = _run(capsys, "gen", "--out", str(tmp_path / "taken"), "--count", "1")
    assert code == 2
    assert str(tmp_path / "taken") in stderr


def test_train_with_zero_epochs_exits_2(tmp_path, capsys, one_sample):
    code, stdout, stderr = _run(capsys, "train", "--data", str(one_sample),
                                "--out", str(tmp_path / "m.ckpt"), "--epochs", "0")
    assert code == 2
    assert "--epochs must be >= 1" in stderr and stdout == ""


def test_train_with_a_non_utf8_config_exits_2(tmp_path, capsys, one_sample):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"train.seed = 1\n\xff\n")
    code, _, stderr = _run(capsys, "train", "--data", str(one_sample), "--config",
                           str(config), "--out", str(tmp_path / "m.ckpt"), "--epochs", "1")
    assert code == 2
    assert "run.cfg: not UTF-8" in stderr


def _default_checkpoint(path, route=None):
    cfg = RunConfig()
    if route is not None:
        cfg.set("skge.route_a", route)
        cfg.set("skge.route_b", route)
    save_model(path, build_model(cfg, np.random.default_rng(0)), cfg=cfg)
    return path


@pytest.mark.parametrize("command, env, flag", [("gen", None, "-1"), ("train", None, "-1"),
                                                ("bench", "-5", "0"), ("gen", "-5", "0")])
def test_a_negative_seed_exits_2(tmp_path, capsys, monkeypatch, one_sample, command, env,
                                 flag):
    if env is not None:
        monkeypatch.setenv("SKGE_SEED", env)
    argv = {"gen": ["--out", str(tmp_path / "d2"), "--count", "1"],
            "train": ["--data", str(one_sample), "--out", str(tmp_path / "m.ckpt"),
                      "--epochs", "1"],
            "bench": ["--ckpt", str(_default_checkpoint(tmp_path / "c.ckpt")),
                      "--iters", "1"]}[command]
    code, stdout, stderr = _run(capsys, command, *argv, "--seed", flag)
    assert code == 2
    source = "--seed" if env is None else "SKGE_SEED"
    assert f"{source} must be >= 0, got {env or flag}" in stderr and stdout == ""
    assert not (tmp_path / "d2").exists() and not (tmp_path / "m.ckpt").exists()


def test_eval_on_images_of_another_size_exits_2(tmp_path, capsys):
    data = tmp_path / "data32"
    _run(capsys, "gen", "--out", str(data), "--count", "1", "--size", "32")
    ckpt = _default_checkpoint(tmp_path / "m64.ckpt")
    code, stdout, stderr = _run(capsys, "eval", "--data", str(data), "--ckpt", str(ckpt))
    assert code == 2
    assert "images of shape (3, 32, 32) for a model of input size 64" in stderr
    assert stdout == ""


@pytest.mark.parametrize("saved_route, run_route", [("none", None), (None, "none")])
def test_resume_from_another_models_checkpoint_exits_2_and_names_the_keys(
        tmp_path, capsys, one_sample, saved_route, run_route):
    ckpt = _default_checkpoint(tmp_path / "other.ckpt", saved_route)
    route = [] if run_route is None else ["--skge-route", run_route]
    code, _, stderr = _run(capsys, "train", "--data", str(one_sample), "--epochs", "1",
                           "--out", str(tmp_path / "m.ckpt"), "--resume", str(ckpt), *route)
    assert code == 2
    saved, this = ("4", "1->4") if saved_route else ("1->4", "4")
    for key in ("skge.route_a", "skge.route_b"):
        assert f"{key} = {saved} (this run: {this})" in stderr
    assert "backbone." not in stderr and "train." not in stderr
    assert not (tmp_path / "m.ckpt").exists()


def test_resume_from_a_checkpoint_without_a_config_record_exits_2(tmp_path, capsys,
                                                                   one_sample):
    # saved from a --skge-route none model with no config record: there is
    # nothing to compare this run's config with, so it cannot be resumed
    cfg = RunConfig()
    cfg.set("skge.route_a", "none")
    cfg.set("skge.route_b", "none")
    ckpt = tmp_path / "noconf.ckpt"
    save_model(ckpt, build_model(cfg, np.random.default_rng(0)))
    code, stdout, stderr = _run(capsys, "train", "--data", str(one_sample), "--epochs", "1",
                                "--out", str(tmp_path / "m.ckpt"), "--resume", str(ckpt))
    assert code == 2
    assert "noconf.ckpt: checkpoint has no 'config' record" in stderr and stdout == ""
    assert not (tmp_path / "m.ckpt").exists()


def _eval_or_train(capsys, command, data, tmp_path):
    if command == "train":
        return _run(capsys, "train", "--data", str(data), "--epochs", "1",
                    "--out", str(tmp_path / "m.ckpt"))
    ckpt = _default_checkpoint(tmp_path / "c.ckpt")
    return _run(capsys, "eval", "--data", str(data), "--ckpt", str(ckpt))


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_dataset_with_no_samples_exits_4(tmp_path, capsys, command):
    data = tmp_path / "empty"
    data.mkdir()
    (data / "manifest.txt").write_text("skge-dataset 1 0 classtable=1\n")
    code, stdout, stderr = _eval_or_train(capsys, command, data, tmp_path)
    assert code == 4
    assert f"{data}: dataset has no samples" in stderr and stdout == ""
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_dataset_of_images_of_two_sizes_exits_4(tmp_path, capsys, command):
    data, small = tmp_path / "data", tmp_path / "small"
    _run(capsys, "gen", "--out", str(data), "--count", "2")
    _run(capsys, "gen", "--out", str(small), "--count", "1", "--size", "32")
    (small / "000000.rec").rename(data / "000002.rec")
    manifest = data / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(" 2 classtable", " 3 classtable")
                        + "2 000002.rec 9\n")
    code, stdout, stderr = _eval_or_train(capsys, command, data, tmp_path)
    assert code == 4
    assert "000002.rec: image shape (3, 32, 32) differs from the first sample's " \
           "(3, 64, 64)" in stderr and stdout == ""
    assert not (tmp_path / "m.ckpt").exists()


def test_score_log_with_an_infinite_route_length_exits_4(tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "bad.ndjson").write_text(
        '{"route_id": "a", "kind": "step", "x": 0, "y": 0, "on_road": true, '
        '"infraction_type": "", "route_length": Infinity}\n')
    code, stdout, stderr = _run(capsys, "score", "--logs", str(logs))
    assert code == 4
    assert "bad.ndjson: route a: route length must be positive and finite" in stderr
    assert stdout == ""
