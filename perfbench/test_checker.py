"""The round checker passes real rounds and rejects broken ones.

    python3 -m pytest perfbench/test_checker.py
"""

from dataclasses import replace

import numpy as np
import pytest

import run
from checker import check_round, quantize


@pytest.fixture(scope="module")
def rounds(monkeypatch_module):
    """Views of real rounds, captured where the benchmark checks them."""
    views = []

    def capture(view):
        views.append(view)
        return check_round(view)

    monkeypatch_module.setattr(run, "check_round", capture)
    workload = run.Workload(users=5, dim=64, dropout=0.3, rounds_per_sim=3)
    rec, _ = run.run_phase(workload, seed=7, seconds=0.2)
    assert rec.attempted == len(views) >= 1
    assert rec.failed == 0 and not rec.problems
    return views


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


def test_real_rounds_pass(rounds):
    for view in rounds:
        assert view.models, "every captured round has participants"
        assert check_round(view) == []


def test_rejects_model_off_by_one_quantum(rounds):
    view = rounds[0]
    uid = min(view.models)
    model = view.models[uid].copy()
    model[3] += 2.0 ** -view.delta_exp / len(view.online)
    broken = replace(view, models={**view.models, uid: model})
    problems = check_round(broken)
    assert any("exact fixed-point mean in 1 coordinates, first 3" in p for p in problems)


def test_rejects_missing_participant(rounds):
    view = rounds[0]
    uid = max(view.models)
    models = {k: v for k, v in view.models.items() if k != uid}
    broken = replace(view, models=models)
    problems = check_round(broken)
    assert any("differ from online users" in p for p in problems)


def test_rejects_upload_one_word_too_long(rounds):
    view = rounds[0]
    uid = min(view.upload_bytes)
    to_cs, to_vs = view.upload_bytes[uid]
    broken = replace(view, upload_bytes={**view.upload_bytes, uid: (to_cs + 8, to_vs)})
    problems = check_round(broken)
    assert any(f"user {uid} uploaded {8 * view.dim + 8} + 8" in p for p in problems)


def test_quantize_rounds_ties_away_from_zero():
    q = 2.0 ** -40
    values = np.array([0.5 * q, -0.5 * q, 1.5 * q, -2.5 * q, 0.49 * q, 1.0])
    assert quantize(values, 40).tolist() == [1, -1, 2, -3, 0, 2 ** 40]
