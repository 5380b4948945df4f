import dataclasses
import json
import math

import numpy as np
import pytest

from skgedrive.autodiff import Tensor
from skgedrive.errors import ContractError, CorruptDataError, DataError
from skgedrive.scoring import (PENALTIES, DriveLog, accuracy, driving_score,
                               infraction_penalty, iou_counts, iou_from_counts, mae,
                               read_drive_log, route_completion, score_routes,
                               write_drive_log)
from skgedrive.training import l1_loss

from oracles import ip_reference, rc_reference


def _log(steps, infractions=(), length=10.0, route_id="r0"):
    return DriveLog(route_id=route_id, total_route_length=length,
                    steps=list(steps), infractions=list(infractions))


def test_penalty_table_exact():
    assert PENALTIES == {"ped": 0.50, "veh": 0.60, "static": 0.65,
                        "red_light": 0.70, "stop_sign": 0.80}


def test_route_completion_counts_segments_starting_on_road():
    steps = [(0, 0, True), (3, 0, False), (6, 0, True), (6, 4, True)]
    rc = route_completion(_log(steps, length=10.0))
    # 0->1 starts on-road (3 m), 1->2 starts off-road (skipped), 2->3 on (4 m)
    assert rc == pytest.approx(70.0)


def test_route_completion_caps_at_100():
    steps = [(0, 0, True), (50, 0, True), (100, 0, True)]
    assert route_completion(_log(steps, length=10.0)) == 100.0


def test_route_completion_handles_short_logs():
    assert route_completion(_log([(0, 0, True)])) == 0.0
    assert route_completion(_log([])) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_route_completion_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    steps = [(float(x), float(y), bool(o)) for x, y, o in
             zip(rng.uniform(-40, 40, n), rng.uniform(-40, 40, n),
                 rng.random(n) < 0.7)]
    length = float(rng.uniform(5.0, 400.0))
    got = route_completion(_log(steps, length=length))
    assert got == pytest.approx(rc_reference(steps, length), abs=1e-9)


def test_route_completion_needs_positive_length():
    for length in (0.0, -1.0, float("nan")):
        with pytest.raises(DataError, match="route length must be positive"):
            _log([(0, 0, True)], length=length)


def test_infraction_penalty_multiplies():
    log = _log([(0, 0, True)], infractions=["ped", "veh", "veh"])
    assert infraction_penalty(log) == pytest.approx(0.5 * 0.6 * 0.6)
    assert infraction_penalty(_log([(0, 0, True)])) == 1.0


def test_infraction_penalty_unknown_kind():
    with pytest.raises(DataError, match="unknown infraction 'jaywalk'"):
        DriveLog(route_id="x", total_route_length=5.0,
                 steps=[(0, 0, True)], infractions=["jaywalk"])
    log = DriveLog(route_id="x", total_route_length=5.0,
                   steps=[(0, 0, True)], infractions=["ped"])
    assert log.infractions == ("ped",)
    with pytest.raises(dataclasses.FrozenInstanceError):
        log.infractions = ("jaywalk",)


def test_driving_score_is_mean_of_products():
    ds = driving_score([(100.0, 0.5), (50.0, 1.0)])
    assert ds == pytest.approx((50.0 + 50.0) / 2)
    with pytest.raises(ContractError):
        driving_score([])


def test_published_single_route_arithmetic():
    ds = driving_score([(86.8683, 0.3421)])
    assert 29.71 <= ds <= 29.72
    assert abs(ds - 29.7100) < 0.01


def test_aggregate_product_differs_from_published_mean():
    """Multiplying the aggregate columns does not recover the mean score."""
    ds = driving_score([(82.8075, 0.4491)])
    assert ds == pytest.approx(37.19, abs=0.005)
    assert abs(ds - 37.1046) > 0.05


def test_iou_per_class_and_empty_union():
    pred = np.zeros((3, 4, 4), dtype=bool)
    gt = np.zeros((3, 4, 4), dtype=bool)
    pred[0, :2] = True
    gt[0, 1:3] = True
    gt[1, 0, 0] = True
    per, mean = iou_from_counts(iou_counts(pred, gt))
    assert per[0] == pytest.approx(8 / 24)
    assert per[1] == 0.0
    assert per[2] == 1.0   # empty prediction, empty truth
    assert mean == pytest.approx(np.mean(per))


def test_iou_shape_mismatch():
    with pytest.raises(ContractError):
        iou_counts(np.zeros((2, 3, 3), dtype=bool), np.zeros((2, 4, 4), dtype=bool))


def test_accuracy_thresholds_both_sides():
    preds = np.array([0.2, 0.7, 0.51, 0.49])
    gts = np.array([0.0, 1.0, 0.0, 1.0])
    assert accuracy(preds, gts) == pytest.approx(0.5)
    with pytest.raises(ContractError):
        accuracy(np.array([]), np.array([]))


@pytest.mark.parametrize("seed", range(5))
def test_mae_is_the_training_l1_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    pred = rng.standard_normal((4, 7)).astype(np.float32)
    gt = rng.standard_normal((4, 7)).astype(np.float32)
    assert mae(pred, gt) == l1_loss(Tensor(pred), Tensor(gt)).item()


def test_drive_log_validation():
    with pytest.raises(DataError):
        _log([(0, 0, True)], length=-1.0).validate()
    with pytest.raises(DataError):
        _log([(float("nan"), 0, True)]).validate()
    with pytest.raises(DataError):
        _log([(0, 0, True)], infractions=["meteor"]).validate()


@pytest.mark.parametrize("steps, infractions, length", [
    ([(0, 0, True), (float("nan"), 0, True)], [], 10.0),
    ([(0, float("inf"), False)], [], 10.0),
    ([(0, 0, True)], ["ped", "meteor"], 10.0),
    ([(0, 0, True)], [], 0.0),
    ([], ["veh"], -3.0),
    ([(0, 0, True)], [], float("inf")),
])
def test_an_invalid_log_cannot_be_built(steps, infractions, length):
    with pytest.raises(DataError):
        DriveLog("r", length, steps, infractions)


def _random_log(rng, route_id):
    n = int(rng.integers(0, 12))
    steps = [(float(x), float(y), bool(o)) for x, y, o in
             zip(rng.uniform(-1e3, 1e3, n), rng.normal(0.0, 50.0, n), rng.random(n) < 0.5)]
    kinds = list(PENALTIES)
    infractions = [kinds[i] for i in rng.integers(0, len(kinds), int(rng.integers(0, 6)))]
    if not steps and not infractions:
        infractions = ["static"]
    return DriveLog(route_id, float(rng.uniform(1e-3, 1e4)), steps, infractions)


@pytest.mark.parametrize("seed", range(20))
def test_random_valid_logs_round_trip_equal(tmp_path, seed):
    rng = np.random.default_rng(seed)
    log = _random_log(rng, f"route{seed}")
    path = tmp_path / "r.ndjson"
    write_drive_log(path, log)
    back = read_drive_log(path)
    assert back == log
    assert isinstance(back.steps, tuple) and isinstance(back.infractions, tuple)
    assert route_completion(back) == route_completion(log)
    assert math.isclose(infraction_penalty(back), ip_reference(log.infractions, PENALTIES))


def test_drive_log_roundtrip(tmp_path):
    log = _log([(0, 0, True), (5, 0, False), (9, 2, True)],
               infractions=["red_light", "ped"], length=42.5, route_id="town3")
    path = tmp_path / "r.ndjson"
    write_drive_log(path, log)
    back = read_drive_log(path)
    assert back.route_id == "town3"
    assert back.total_route_length == 42.5
    assert back.steps == log.steps
    assert back.infractions == log.infractions
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_drive_log(path) == back
    path.write_bytes(path.read_bytes().replace(b"\r\n", b"\r"))
    assert read_drive_log(path) == back


def test_written_bytes_are_unchanged(tmp_path):
    path = tmp_path / "r.ndjson"
    write_drive_log(path, DriveLog("r1", 12.5, steps=[(0.0, 1.5, True), (3.25, -2.0, False)],
                                   infractions=["ped", "red_light"]))
    assert path.read_text() == (
        '{"route_id": "r1", "kind": "step", "x": 0.0, "y": 1.5, "on_road": true, '
        '"infraction_type": "", "route_length": 12.5}\n'
        '{"route_id": "r1", "kind": "step", "x": 3.25, "y": -2.0, "on_road": false, '
        '"infraction_type": ""}\n'
        '{"route_id": "r1", "kind": "infraction", "x": 0.0, "y": 0.0, "on_road": false, '
        '"infraction_type": "ped"}\n'
        '{"route_id": "r1", "kind": "infraction", "x": 0.0, "y": 0.0, "on_road": false, '
        '"infraction_type": "red_light"}\n')
    write_drive_log(path, DriveLog("r2", 7.0, infractions=["veh"]))
    assert path.read_text() == (
        '{"route_id": "r2", "kind": "infraction", "x": 0.0, "y": 0.0, "on_road": false, '
        '"infraction_type": "veh", "route_length": 7.0}\n')


def test_a_log_with_nothing_to_write_is_refused_and_keeps_the_old_file(tmp_path):
    path = tmp_path / "r.ndjson"
    write_drive_log(path, _log([(0, 0, True)]))
    before = path.read_bytes()
    with pytest.raises(ContractError, match="route r: a drive log needs"):
        write_drive_log(path, DriveLog("r", 10.0))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["r.ndjson"]


def test_first_line_carries_route_length(tmp_path):
    path = tmp_path / "r.ndjson"
    write_drive_log(path, _log([(0, 0, True), (1, 1, True)], length=7.0))
    first = json.loads(open(path).readline())
    assert first["route_length"] == 7.0


def test_read_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.ndjson"
    rec = {"route_id": "a", "kind": "step", "x": 0, "y": 0,
           "infraction_type": "", "route_length": 5.0}  # on_road missing
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(CorruptDataError):
        read_drive_log(path)


def test_read_rejects_mixed_route_ids(tmp_path):
    path = tmp_path / "mixed.ndjson"
    lines = []
    for rid in ("a", "b"):
        lines.append(json.dumps({"route_id": rid, "kind": "step", "x": 0,
                                 "y": 0, "on_road": True,
                                 "infraction_type": "", "route_length": 5.0}))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptDataError):
        read_drive_log(path)


def test_read_requires_route_length_somewhere(tmp_path):
    path = tmp_path / "nolen.ndjson"
    rec = {"route_id": "a", "kind": "step", "x": 0, "y": 0,
           "on_road": True, "infraction_type": ""}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(CorruptDataError):
        read_drive_log(path)


def test_read_rejects_empty_and_garbage(tmp_path):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    with pytest.raises(CorruptDataError):
        read_drive_log(empty)
    garbage = tmp_path / "garbage.ndjson"
    garbage.write_text("{not json\n")
    with pytest.raises(CorruptDataError):
        read_drive_log(garbage)


def test_read_rejects_unknown_kind(tmp_path):
    path = tmp_path / "kind.ndjson"
    rec = {"route_id": "a", "kind": "teleport", "x": 0, "y": 0,
           "on_road": True, "infraction_type": "", "route_length": 5.0}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(CorruptDataError):
        read_drive_log(path)


def test_score_routes_aggregates():
    logs = [
        _log([(0, 0, True), (10, 0, True)], length=10.0, route_id="a"),
        _log([(0, 0, True), (5, 0, True)], ["ped"], length=10.0, route_id="b"),
    ]
    out = score_routes(logs)
    assert [r["route_id"] for r in out["routes"]] == ["a", "b"]
    assert out["routes"][0]["ds"] == pytest.approx(100.0)
    assert out["routes"][1]["ds"] == pytest.approx(25.0)
    assert out["driving_score"] == pytest.approx(62.5)
    assert out["mean_rc"] == pytest.approx(75.0)
    assert out["mean_ip"] == pytest.approx(0.75)


@pytest.mark.parametrize("seed", range(30))
def test_penalty_properties_random_logs(seed):
    """Multiplicative, order-free, in (0, 1], decreasing per infraction."""
    rng = np.random.default_rng(seed)
    kinds = list(PENALTIES)
    picks = [kinds[i] for i in rng.integers(0, len(kinds), rng.integers(0, 8))]
    log = _log([(0, 0, True)], infractions=picks)
    ip = infraction_penalty(log)
    assert ip == pytest.approx(ip_reference(picks, PENALTIES))
    assert 0.0 < ip <= 1.0
    shuffled = list(picks)
    rng.shuffle(shuffled)
    assert infraction_penalty(_log([(0, 0, True)], infractions=shuffled)) == \
        pytest.approx(ip)
    worse = infraction_penalty(_log([(0, 0, True)], infractions=picks + ["veh"]))
    assert worse < ip or (not picks and worse == pytest.approx(0.6))