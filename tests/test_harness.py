import random
import time
from dataclasses import replace

import numpy as np
import pytest

from vsecagg import harness
from vsecagg.cli import main as cli_main
from vsecagg.codec import CodecParams
from vsecagg.field import FieldModulus
from vsecagg.harness import (ADVERSARY_ACTIONS, STAGES, AdversarySpec, Alarm, ConfigError,
                             RunConfig, default_params, forgery_calibration,
                             plaintext_oracle, run_simulation)
from vsecagg.roles import CsState, VsState, setup
from vsecagg.wire import (AlarmReason, Message, MessageKind, pack_online_list,
                         unpack_online_list)

BIG_PRIME = FieldModulus((1 << 60) + 33)  # the smallest prime above 2^60


def cparams(n_max=10):
    return CodecParams(delta=1 << 40, r_w=BIG_PRIME, n_max=n_max)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(users=0)
    with pytest.raises(ConfigError):
        RunConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        RunConfig(mode="carrier-pigeon")
    with pytest.raises(ConfigError):
        RunConfig(users=2, weights=(1.0,))


def test_adversary_spec_parse():
    spec = AdversarySpec.parse("cs:tamper_aggregate:3:7")
    assert spec == AdversarySpec("cs", "tamper_aggregate", 3, 7)
    assert AdversarySpec.parse("vs:forge_tag:1").magnitude == 1
    with pytest.raises(ConfigError):
        AdversarySpec.parse("cs:read_minds:1")
    with pytest.raises(ConfigError):
        AdversarySpec.parse("cs:forge_tag")


def test_honest_run_verifies_with_tight_oracle():
    cfg = RunConfig(users=3, dim=2, rounds=2, seed=5)
    report = run_simulation(cfg)
    assert report.exit_ok
    assert all(r.verified for r in report.rounds)
    assert report.max_oracle_deviation <= 0.5 / (1 << cfg.delta_exp)


def test_full_dropout_round_aborts_and_run_continues():
    # dropout just below 1: some seeded rounds lose every user.
    cfg = RunConfig(users=2, dim=1, rounds=12, dropout=0.9, seed=11)
    report = run_simulation(cfg)
    aborted = [r for r in report.rounds if r.aborted]
    executed = [r for r in report.rounds if not r.aborted]
    assert aborted, "expected at least one fully-dropped round at this seed"
    assert all(r.verified for r in executed)
    assert report.exit_ok


def test_dropout_only_counts_participants():
    cfg = RunConfig(users=10, dim=2, rounds=3, dropout=0.4, seed=13)
    report = run_simulation(cfg)
    for rec in report.rounds:
        if not rec.aborted:
            assert 1 <= len(rec.participants) <= 10
            assert rec.verified


ISOLATION_CASES = [
    ("cs", "tamper_model_share"),
    ("cs", "tamper_aggregate"),
    ("cs", "drop_participant"),
    ("cs", "lie_about_m"),
    ("vs", "forge_tag"),
]


@pytest.mark.parametrize("target,action", ISOLATION_CASES)
def test_adversary_detected_and_isolated_to_its_round(target, action):
    cfg = RunConfig(users=3, dim=4, rounds=2, seed=23,
                    adversary=AdversarySpec(target, action, 1))
    report = run_simulation(cfg)
    assert report.rounds[0].adversarial
    assert report.rounds[0].detected
    assert not report.rounds[0].verified
    assert report.rounds[1].verified  # next round recovers
    assert report.exit_ok


def test_every_attack_in_the_table_has_acceptance_coverage():
    # Criterion 2 and the isolation test list their attacks by hand, so a
    # new table entry must be added to both before tier-1 passes.
    from test_acceptance import ADVERSARY_PAIRS
    table = {(attack.server, action) for action, attack in ADVERSARY_ACTIONS.items()}
    assert table <= set(ADVERSARY_PAIRS)
    assert table <= set(ISOLATION_CASES)


@pytest.mark.parametrize("target,action", [
    ("cs", "forge_tag"),
    ("vs", "tamper_model_share"),
    ("vs", "tamper_aggregate"),
    ("vs", "drop_participant"),
    ("vs", "lie_about_m"),
])
def test_adversary_spec_rejects_a_server_that_does_not_perform_the_action(target, action):
    with pytest.raises(ConfigError):
        AdversarySpec(target, action, 1)
    with pytest.raises(ConfigError):
        AdversarySpec.parse(f"{target}:{action}:1")


@pytest.mark.parametrize("action", ["tamper_model_share", "drop_participant"])
def test_cs_tampering_leaves_the_senders_frames_unchanged(monkeypatch, action):
    # The CS keeps each share as a view into the frame it received; the
    # attack must change the CS's copy, never the bytes the user sent.
    received = []
    receive_share = CsState.receive_share

    def spy(self, msg):
        received.append((msg.payload, bytes(msg.payload)))
        return receive_share(self, msg)

    monkeypatch.setattr(CsState, "receive_share", spy)
    report = run_simulation(RunConfig(users=4, dim=5, rounds=2, seed=6,
                                      adversary=AdversarySpec("cs", action, 1, 3)))
    assert report.rounds[0].detected and report.rounds[1].verified
    assert len(received) == 8
    for payload, sent in received:
        assert bytes(payload) == sent


def test_exit_not_ok_propagates_from_honest_failure():
    cfg = RunConfig(users=2, dim=2, rounds=1, seed=1)
    report = run_simulation(cfg)
    report.rounds[0].verified = False
    assert not report.exit_ok


def test_alarm_recorded_on_detection():
    # Every participant sees the tampered aggregate, so each raises its own alarm.
    cfg = RunConfig(users=3, dim=2, rounds=1, seed=3,
                    adversary=AdversarySpec("cs", "tamper_aggregate", 1))
    report = run_simulation(cfg)
    participants = report.rounds[0].participants
    assert len(participants) == 3
    assert sorted(alarm.uid for alarm in report.alarms) == list(participants)
    for alarm in report.alarms:
        assert alarm.round_index == 1 and alarm.first != alarm.second
        assert alarm.reason is AlarmReason.TAG_MISMATCH


def test_count_mismatch_alarm_per_participant():
    cfg = RunConfig(users=3, dim=2, rounds=1, seed=1,
                    adversary=AdversarySpec("cs", "lie_about_m", 1))
    report = run_simulation(cfg)
    rec = report.rounds[0]
    assert rec.detected and not rec.verified
    # The CS claims one participant more than the VS counted.
    assert report.alarms == [Alarm(1, uid, AlarmReason.COUNT_MISMATCH, 4, 3)
                             for uid in rec.participants]
    assert rec.participants == (0, 1, 2)


def test_count_mismatches_are_counted_per_participant():
    # perfbench reads mismatch_errors: it must count each COUNT_MISMATCH result.
    params = default_params(RunConfig(users=4, dim=3))
    rng = random.Random(8)
    users, cs, vs = setup(4, params, rng=rng)
    all_users = {u.uid: u for u in users}
    net = harness._Network("memory")
    updates = {u.uid: np.full(3, 0.25) for u in users}
    honest = harness.run_round(users, all_users, cs, vs, net, 1, updates, rng)
    lying = harness.run_round(users, all_users, cs, vs, net, 2, updates, rng,
                              adversary=AdversarySpec("cs", "lie_about_m", 2))
    net.close()
    assert honest.mismatch_errors == 0
    assert lying.mismatch_errors == len(lying.results) == 4
    assert all(res.alarm == (AlarmReason.COUNT_MISMATCH, 5, 4)
               for res in lying.results.values())


def test_length_mismatch_alarm_per_participant(monkeypatch):
    publish = CsState.publish_model_message

    def publish_short(cs, round_index):
        msg = publish(cs, round_index)
        return replace(msg, payload=msg.payload[:-8])

    monkeypatch.setattr(CsState, "publish_model_message", publish_short)
    report = run_simulation(RunConfig(users=3, dim=2, rounds=1, seed=1))
    rec = report.rounds[0]
    assert not rec.verified and not report.exit_ok
    assert report.alarms == [Alarm(1, uid, AlarmReason.LENGTH_MISMATCH, 2, 1)
                             for uid in rec.participants]
    assert rec.participants == (0, 1, 2)


@pytest.mark.parametrize("server,publish,kind", [
    (CsState, "publish_model_message", MessageKind.PUBLISH_MODEL),
    (VsState, "publish_tag_message", MessageKind.PUBLISH_TAG),
])
def test_malformed_publication_alarm_per_participant(monkeypatch, server, publish, kind):
    original = getattr(server, publish)
    outcomes = []
    run_round = harness.run_round

    def publish_malformed(state, round_index):
        return replace(original(state, round_index), payload=b"\x00" * 3)

    def spy(*args, **kwargs):
        outcomes.append(run_round(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(server, publish, publish_malformed)
    monkeypatch.setattr(harness, "run_round", spy)
    report = run_simulation(RunConfig(users=3, dim=2, rounds=1, seed=1))
    rec = report.rounds[0]
    assert not rec.verified and not report.exit_ok
    assert report.alarms == [Alarm(1, uid, AlarmReason.MALFORMED_PUBLICATION, int(kind), 3)
                             for uid in rec.participants]
    assert rec.participants == (0, 1, 2)
    # A malformed publication is a result like every other rejection.
    (outcome,) = outcomes
    assert list(outcome.results) == [0, 1, 2]
    assert not any(res.verified or res.model is not None for res in outcome.results.values())


def test_servers_intersect_the_online_lists_they_received():
    # The VS's list reaches the CS without user 2, so user 2 is no participant
    # although both servers hold its share.
    class DroppingNetwork(harness._Network):
        def transfer(self, name, msg):
            delivered = super().transfer(name, msg)
            if name == "vs->cs" and delivered.kind is MessageKind.ONLINE_LIST:
                ids = [uid for uid in unpack_online_list(delivered.payload) if uid != 2]
                delivered = replace(delivered, payload=pack_online_list(ids))
            return delivered

    params = default_params(RunConfig(users=4, dim=3))
    rng = random.Random(3)
    users, cs, vs = setup(4, params, rng=rng)
    all_users = {u.uid: u for u in users}
    net = DroppingNetwork("memory")
    updates = {0: np.zeros(3), 1: np.full(3, 0.25), 2: np.full(3, 0.5), 3: np.full(3, 0.75)}
    outcome = harness.run_round(users, all_users, cs, vs, net, 1, updates, rng)
    net.close()
    assert list(outcome.results) == [0, 1, 3]
    assert all(res.verified for res in outcome.results.values())
    for res in outcome.results.values():
        assert np.array_equal(res.model, np.full(3, 1 / 3))
    assert cs.rounds[1].m == vs.rounds[1].m == 3


@pytest.mark.parametrize("adversary", [None, AdversarySpec("cs", "tamper_aggregate", 2)])
def test_round_spans_time_each_role_call(monkeypatch, adversary):
    online_counts = []
    run_round = harness.run_round

    def spy(users_online, *args, **kwargs):
        online_counts.append(len(users_online))
        return run_round(users_online, *args, **kwargs)

    monkeypatch.setattr(harness, "run_round", spy)
    report = run_simulation(RunConfig(users=6, dim=4, rounds=3, dropout=0.3, seed=4,
                                      adversary=adversary))
    assert len(report.rounds) == len(online_counts) == 3
    assert min(online_counts) < 6  # dropout took users out of some round
    for rec, online in zip(report.rounds, online_counts):
        assert {stage: len(seconds) for stage, seconds in rec.spans.items()} == {
            "share": online, "vs_aggregate": 1, "cs_aggregate": 1, "eval": 1,
            "verify": len(rec.participants)}
        assert len(rec.participants) == online
        assert all(s > 0 for seconds in rec.spans.values() for s in seconds)
    assert [rec.detected for rec in report.rounds] == [False, adversary is not None, False]


def test_reproducibility_identical_reports():
    cfg = RunConfig(users=4, dim=3, rounds=3, dropout=0.2, seed=77)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    # Wall times and stage medians are the only wall-clock fields.
    strip = lambda text: "\n".join(line for line in text.splitlines()
                                   if "wall_time" not in line and "median_ms" not in line)
    assert strip(a.to_text()) == strip(b.to_text())


def test_socket_mode_matches_memory_mode():
    mem = run_simulation(RunConfig(users=2, dim=3, rounds=2, seed=9, mode="memory"))
    sock = run_simulation(RunConfig(users=2, dim=3, rounds=2, seed=9, mode="socket"))
    assert mem.exit_ok and sock.exit_ok
    assert [r.verified for r in mem.rounds] == [r.verified for r in sock.rounds]
    assert mem.ledger.payload_bytes("user0->cs", 1) == \
        sock.ledger.payload_bytes("user0->cs", 1)


def test_socket_round_at_large_dim_is_bit_equal_to_memory_mode(monkeypatch):
    # 1.6 MB frames reach the socket receiver in many pieces.
    run_round = harness.run_round

    def transcript(mode):
        outcomes = []

        def recording(*args, **kwargs):
            outcomes.append(run_round(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(harness, "run_round", recording)
        report = run_simulation(RunConfig(users=3, dim=200_000, rounds=1, seed=12, mode=mode))
        assert report.rounds[0].verified
        (outcome,) = outcomes
        return (outcome.w1pp.tobytes(), outcome.b2p, report.ledger.entries,
                {uid: res.model.tobytes() for uid, res in outcome.results.items()})

    assert transcript("memory") == transcript("socket")


def test_per_round_user_up_traffic():
    cfg = RunConfig(users=2, dim=100, rounds=1, seed=2)
    report = run_simulation(cfg)
    assert report.ledger.payload_bytes("user0->cs", 1) == 800
    assert report.ledger.payload_bytes("user0->vs", 1) == 8
    # Server-to-server per round: w_t (8d) + b_t (8) + one online list each way.
    assert report.ledger.payload_bytes("vs->cs", 1) == 800 + 4 * 2
    assert report.ledger.payload_bytes("cs->vs", 1) == 8 + 4 * 2


def test_weighted_simulation():
    cfg = RunConfig(users=2, dim=3, rounds=1, seed=4, weights=(1.0, 3.0))
    report = run_simulation(cfg)
    assert report.exit_ok
    assert report.max_oracle_deviation <= 0.5 / (1 << cfg.delta_exp)


def test_plaintext_oracle_examples():
    p = cparams()
    updates = {0: np.array([1.0, 1.0]), 1: np.array([3.0, 3.0])}
    assert np.allclose(plaintext_oracle(updates, [0], p), [1.0, 1.0])
    assert np.allclose(plaintext_oracle(updates, [0, 1], p), [2.0, 2.0])
    with pytest.raises(ConfigError):
        plaintext_oracle(updates, [], p)


def test_oracle_weighted():
    p = cparams()
    updates = {0: np.array([1.0]), 1: np.array([3.0])}
    out = plaintext_oracle(updates, [0, 1], p, weights={0: 1.0, 1: 3.0})
    assert out[0] == pytest.approx(2.5, abs=1e-9)  # (1*1 + 3*3) / 4


def test_forgery_calibration_large_modulus_never_passes():
    # At R_b = R_w = 2^61 - 1 a nonzero offset times a unit never vanishes.
    result = forgery_calibration(FieldModulus((1 << 61) - 1), trials=1_000, seed=3)
    assert result.tamper_rate == 0.0


@pytest.mark.parametrize("r_b, trials, seed, dim, rates", [
    (11, 20_000, 1, 4, (0.0894, 0.092)),
    (3, 5_000, 4, 7, (0.3322, 0.3414)),
    ((1 << 61) - 1, 1_000, 3, 4, (0.0, 0.0)),
])
def test_forgery_calibration_pinned_rates(r_b, trials, seed, dim, rates):
    # The same seed draws the same forgeries, so a change to the lift or
    # the tag kernel shows here as a changed rate.
    result = forgery_calibration(r_b, trials, seed=seed, dim=dim)
    assert (result.tamper_rate, result.guess_rate) == rates


def test_forgery_calibration_small_modulus_rates():
    result = forgery_calibration(11, trials=20_000, seed=5)
    band = 3 * (result.bound * (1 - result.bound) / result.trials) ** 0.5
    assert abs(result.tamper_rate - 1 / 11) < band
    assert abs(result.guess_rate - 1 / 11) < band


def test_cli_simulate_exit_codes(tmp_path):
    out = tmp_path / "report.txt"
    rc = cli_main(["simulate", "--users", "3", "--dim", "2", "--rounds", "1",
                   "--seed", "1", "--report-out", str(out)])
    assert rc == 0
    assert "exit_ok=True" in out.read_text()
    rc = cli_main(["simulate", "--users", "3", "--dim", "2", "--rounds", "1",
                   "--seed", "1", "--adversary", "cs:tamper_aggregate:1"])
    assert rc == 0  # detected adversary is a successful run


def test_cli_calibrate_and_oracle(tmp_path, capsys):
    rc = cli_main(["calibrate", "--modulus", "11", "--trials", "2000", "--seed", "1"])
    assert rc == 0
    assert "tamper_rate=" in capsys.readouterr().out
    rc = cli_main(["oracle", "--users", "2", "--dim", "2", "--seed", "3"])
    assert rc == 0


@pytest.mark.parametrize("weights", [None, (2.0, 1.0, 3.0, 4.0)])
def test_cli_oracle_matches_simulated_round_one(monkeypatch, capsys, tmp_path, weights):
    # At this seed only user 0 is online in round 1.
    argv = ["oracle", "--users", "4", "--dim", "2", "--seed", "4", "--dropout", "0.5"]
    cfg = RunConfig(users=4, dim=2, rounds=1, dropout=0.5, seed=4, weights=weights)
    if weights is not None:
        path = tmp_path / "weights.txt"
        path.write_text("".join(f"{w}\n" for w in weights))
        argv += ["--weights-file", str(path)]
    assert cli_main(argv) == 0
    printed = [float(line.split("=")[1]) for line in capsys.readouterr().out.split()]

    outcomes = []
    run_round = harness.run_round

    def spy(*args, **kwargs):
        outcomes.append(run_round(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(harness, "run_round", spy)
    report = run_simulation(cfg)
    assert report.rounds[0].participants == (0,)
    assert [res.model.tolist() for res in outcomes[0].results.values()] == [printed]


@pytest.mark.parametrize("argv", [
    ["simulate", "--users", "3", "--dim", "4", "--seed", "23",
     "--adversary", "vs:tamper_model_share:1"],
    ["oracle", "--users", "2", "--dim", "1", "--seed", "0", "--dropout", "0.9"],
    ["simulate", "--adversary", "cs:tamper_aggregate:first"],
    ["simulate", "--delta-exp", "60"],  # the capacity check fails
    ["simulate", "--delta-exp", "-1"],
    ["simulate", "--prime-bits", "61"],
    ["simulate", "--prime-bits", "0"],
    ["calibrate", "--modulus", "12"],
    ["calibrate", "--modulus", "2"],
    ["calibrate", "--dim", "0"],
    # {tmp} is a directory that holds the weights files written below.
    ["simulate", "--users", "2", "--weights-file", "{tmp}/words.txt"],
    ["simulate", "--users", "2", "--weights-file", "{tmp}/missing.txt"],
    ["simulate", "--users", "2", "--weights-file", "{tmp}/zero.txt"],
    ["oracle", "--users", "2", "--weights-file", "{tmp}/large.txt"],
    ["simulate", "--users", "2", "--weights-file", "{tmp}/nan.txt"],
])
def test_cli_config_error_is_a_usage_error(capsys, tmp_path, argv):
    for name, text in (("words", "1.0\nheavy\n"), ("zero", "0\n1\n"),
                       ("large", "1\n20\n"), ("nan", "nan\n1\n")):
        (tmp_path / f"{name}.txt").write_text(text)
    assert cli_main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vsecagg: error: ")
    assert "Traceback" not in captured.err


def test_cli_weights_file(tmp_path, capsys):
    weights = tmp_path / "weights.txt"
    weights.write_text("1.0\n3.0\n")
    rc = cli_main(["simulate", "--users", "2", "--dim", "2", "--rounds", "1",
                   "--seed", "2", "--weights-file", str(weights)])
    assert rc == 0
    out = capsys.readouterr().out
    # The weight travels as one more coordinate: 8 * (d + 1) bytes of model
    # share up, next to the 8-byte tag share.
    assert "traffic link=user0->cs round=1 payload=24 " in out
    assert "traffic link=user0->vs round=1 payload=8 " in out


def test_cli_simulate_in_socket_mode_with_dropout_reports_stages_and_alarms(capsys):
    rc = cli_main(["simulate", "--users", "6", "--dim", "16", "--rounds", "3", "--seed", "4",
                   "--mode", "socket", "--dropout", "0.5",
                   "--adversary", "cs:tamper_aggregate:2"])
    assert rc == 0  # the tampered round is detected
    lines = capsys.readouterr().out.splitlines()
    stages = [line.split()[0] for line in lines if line.startswith("stage=")]
    assert stages == [f"stage={stage}" for stage in STAGES]
    (round_2,) = [line for line in lines if line.startswith("round=2 ")]
    m = int(round_2.split()[1].removeprefix("m="))
    alarms = [line for line in lines if line.startswith("alarm ")]
    assert 1 <= m < 6  # dropout took users out of the tampered round
    assert len(alarms) == m
    assert all(line.startswith("alarm round=2 ") and " reason=TAG_MISMATCH " in line
               for line in alarms)


def test_stage_medians_come_from_the_round_spans():
    report = run_simulation(RunConfig(users=3, dim=8, rounds=3, seed=5))
    for stage in STAGES:  # 3 or 9 spans each: the median is the middle one
        spans = sorted(s for rec in report.rounds for s in rec.spans[stage])
        assert report.stage_ms(stage) == pytest.approx(1e3 * spans[len(spans) // 2])
        assert f"stage={stage} median_ms={report.stage_ms(stage):.3f}\n" in report.to_text()
    # No user is online in the only round: no stage ran.
    report = run_simulation(RunConfig(users=2, dim=1, seed=0, dropout=0.9))
    assert report.rounds[0].aborted
    assert report.stage_ms("share") is None and "stage=" not in report.to_text()


def test_wall_time_is_the_run_round_call(monkeypatch):
    real_oracle = harness.plaintext_oracle

    def slow_oracle(*args, **kwargs):
        time.sleep(0.05)
        return real_oracle(*args, **kwargs)

    monkeypatch.setattr(harness, "plaintext_oracle", slow_oracle)
    report = run_simulation(RunConfig(users=3, dim=4, rounds=2, seed=1))
    assert all(rec.verified for rec in report.rounds)
    assert all(0 < rec.wall_time < 0.05 for rec in report.rounds)


def test_socket_network_carries_a_frame_larger_than_the_socket_buffers():
    payload = np.arange(2 * 2 ** 20, dtype=np.uint64).tobytes()  # 16 MB
    net = harness._Network("socket")
    try:
        got = net.transfer("user0->cs", Message(MessageKind.MODEL_SHARE, 1, 0, payload))
    finally:
        net.close()
    assert got.payload == payload
    assert net.ledger.payload_bytes("user0->cs", 1) == len(payload)
