"""Tests for flow re-evaluation (Section 4.3 dynamics)."""

import numpy as np
import pytest

from repro.core.admittance import AdmittanceClassifier
from repro.core.dynamics import FlowRevalidator
from repro.core.policies import AdmittancePolicy, PolicyAction
from repro.traffic.flows import Flow, STREAMING, WEB


def _online_classifier(max_total=4, n_levels=2, seed=0):
    rng = np.random.default_rng(seed)
    clf = AdmittanceClassifier(
        batch_size=20, min_bootstrap_samples=200, max_bootstrap_samples=250,
        cv_threshold=0.9,
    )
    dims = 3 * n_levels
    while not clf.is_online:
        total = int(rng.integers(0, 2 * max_total + 2))
        counts = rng.multinomial(total, [1 / dims] * dims).astype(float)
        cls = float(rng.integers(0, 3))
        level = float(rng.integers(0, n_levels))
        x = np.concatenate([counts, [cls], [level] if n_levels > 1 else []])
        # Low-SNR flows (level 0) count double against capacity.
        weighted = sum(
            counts[i] * (2.0 if i % n_levels == 0 else 1.0) for i in range(dims)
        )
        y = 1 if weighted <= max_total else -1
        clf.observe_bootstrap(x, y)
    return clf


def _flow(app_class=WEB):
    return Flow(app_class=app_class, snr_db=53.0, client_id=1)


class TestFlowRevalidator:
    def test_noop_while_bootstrapping(self):
        revalidator = FlowRevalidator(AdmittanceClassifier(), AdmittancePolicy())
        result = revalidator.poll([(_flow(), 0)], n_levels=1)
        assert result.checked == 0
        assert result.revoked == ()

    def test_healthy_flows_keep_running(self):
        clf = _online_classifier()
        revalidator = FlowRevalidator(clf, AdmittancePolicy())
        flows = [(_flow(), 1)]
        result = revalidator.poll(flows, n_levels=2)
        assert result.checked == 1
        assert result.revoked == ()

    def test_overload_revokes(self):
        clf = _online_classifier()
        policy = AdmittancePolicy(on_revoke=PolicyAction.OFFLOAD, offload_target="lte")
        revalidator = FlowRevalidator(clf, policy)
        flows = [(_flow(WEB), 0) for _ in range(6)]  # 6 low-SNR flows: way over
        result = revalidator.poll(flows, n_levels=2)
        assert len(result.revoked) > 0
        assert all(o.action is PolicyAction.OFFLOAD for o in result.outcomes)

    def test_only_changed_skips_stable_flows(self):
        clf = _online_classifier()
        revalidator = FlowRevalidator(clf, AdmittancePolicy())
        flow = _flow()
        # First poll records the level; no change yet.
        revalidator.poll([(flow, 1)], n_levels=2, only_changed=True)
        result = revalidator.poll([(flow, 1)], n_levels=2, only_changed=True)
        assert result.checked == 0

    def test_only_changed_catches_snr_move(self):
        clf = _online_classifier()
        revalidator = FlowRevalidator(clf, AdmittancePolicy())
        flow = _flow()
        revalidator.poll([(flow, 1)], n_levels=2, only_changed=True)
        result = revalidator.poll([(flow, 0)], n_levels=2, only_changed=True)
        assert result.checked == 1

    def test_level_memory_bounded_by_active_flows(self):
        # A long-running middlebox polls a churning flow set: departed
        # flows must not stay in the level memory.
        clf = _online_classifier()
        revalidator = FlowRevalidator(clf, AdmittancePolicy())
        rng = np.random.default_rng(3)
        active = []
        for _ in range(200):
            active.append((_flow(), int(rng.integers(2))))
            if len(active) > 3:
                active.pop(int(rng.integers(len(active))))
            revalidator.poll(active, n_levels=2, only_changed=True)
            assert len(revalidator._last_levels) <= len(active)
        # Surviving flows keep their memory: a level move is still caught.
        flow, level = active[0]
        result = revalidator.poll([(flow, 1 - level)], n_levels=2, only_changed=True)
        assert result.checked == 1

    def test_matrix_from_flows(self):
        flows = [(_flow(WEB), 0), (_flow(STREAMING), 1), (_flow(WEB), 0)]
        matrix = FlowRevalidator.matrix_from_flows(flows, n_levels=2)
        assert matrix.counts == (2, 0, 0, 1, 0, 0)
