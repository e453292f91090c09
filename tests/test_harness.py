import numpy as np
import pytest

from vsecagg.cli import main as cli_main
from vsecagg.codec import CodecParams
from vsecagg.field import find_prime_above
from vsecagg.harness import (AdversarySpec, ConfigError, RunConfig, bench,
                             default_params, forgery_calibration,
                             plaintext_oracle, run_simulation)

BIG_PRIME = find_prime_above(1 << 60)


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


@pytest.mark.parametrize("target,action", [
    ("cs", "tamper_model_share"),
    ("cs", "tamper_aggregate"),
    ("cs", "drop_participant"),
    ("cs", "lie_about_m"),
    ("vs", "forge_tag"),
])
def test_adversary_detected_and_isolated_to_its_round(target, action):
    cfg = RunConfig(users=3, dim=4, rounds=2, seed=23,
                    adversary=AdversarySpec(target, action, 1))
    report = run_simulation(cfg)
    assert report.rounds[0].adversarial
    assert report.rounds[0].detected
    assert not report.rounds[0].verified
    assert report.rounds[1].verified  # next round recovers
    assert report.exit_ok


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
    assert sorted(alarm.sender for alarm in report.alarms) == list(participants)
    from vsecagg.wire import unpack_alarm
    for alarm in report.alarms:
        r, expected, computed = unpack_alarm(alarm.payload)
        assert alarm.round_index == r == 1 and expected != computed


def test_reproducibility_identical_reports():
    cfg = RunConfig(users=4, dim=3, rounds=3, dropout=0.2, seed=77)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    strip = lambda text: "\n".join(line for line in text.splitlines()
                                   if "wall_time" not in line)
    assert strip(a.to_text()) == strip(b.to_text())


def test_socket_mode_matches_memory_mode():
    mem = run_simulation(RunConfig(users=2, dim=3, rounds=2, seed=9, mode="memory"))
    sock = run_simulation(RunConfig(users=2, dim=3, rounds=2, seed=9, mode="socket"))
    assert mem.exit_ok and sock.exit_ok
    assert [r.verified for r in mem.rounds] == [r.verified for r in sock.rounds]
    assert mem.ledger.payload_bytes("user0->cs", 1) == \
        sock.ledger.payload_bytes("user0->cs", 1)


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
    result = forgery_calibration(BIG_PRIME, trials=1_000, seed=3, r_w=BIG_PRIME)
    assert result.tamper_rate == 0.0


def test_forgery_calibration_small_modulus_rates():
    result = forgery_calibration(11, trials=20_000, seed=5)
    band = 3 * (result.bound * (1 - result.bound) / result.trials) ** 0.5
    assert abs(result.tamper_rate - 1 / 11) < band
    assert abs(result.guess_rate - 1 / 11) < band


def test_bench_reports_expected_up_traffic():
    result = bench(RunConfig(users=10, dim=20_000, seed=1), reps=3)
    assert result.up_payload_bytes == 160_008
    assert result.share_ms > 0 and result.verify_ms > 0


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


def test_cli_weights_file(tmp_path):
    weights = tmp_path / "weights.txt"
    weights.write_text("1.0\n3.0\n")
    rc = cli_main(["simulate", "--users", "2", "--dim", "2", "--rounds", "1",
                   "--seed", "2", "--weights-file", str(weights)])
    assert rc == 0
