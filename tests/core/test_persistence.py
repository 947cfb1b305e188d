"""Tests for ExBox state persistence."""

import numpy as np
import pytest

from repro.core.exbox import ExBox
from repro.core.persistence import dump_exbox, dumps_exbox, load_exbox, loads_exbox
from repro.core.admittance import Phase
from repro.traffic.flows import APP_CLASSES, FlowRequest, WEB
from repro.testbed.wifi_testbed import WiFiTestbed


def _train_online(estimator, seed, **kwargs):
    rng = np.random.default_rng(seed)
    testbed = WiFiTestbed()
    box = ExBox.with_defaults(
        batch_size=15, min_bootstrap_samples=30, max_bootstrap_samples=60, **kwargs
    )
    box.qoe_estimator = estimator
    client = 0
    while not box.admittance.is_online:
        client += 1
        cls = APP_CLASSES[int(rng.integers(3))]
        decision = box.handle_arrival(FlowRequest(client_id=client, app_class=cls))
        specs = [(f.app_class, f.snr_db) for f in box.active_flows]
        box.report_outcome(decision, testbed.run_flows(specs[:10], rng=rng))
        while len(box.active_flows) > 5:
            box.handle_departure(box.active_flows[0])
    return box


@pytest.fixture(scope="module")
def trained_box(estimator):
    return _train_online(estimator, 61)


class TestRoundtrip:
    def test_snapshot_is_json(self, trained_box):
        import json

        state = json.loads(dumps_exbox(trained_box))
        assert state["format_version"] == 3
        assert set(state["qoe_models"]) == set(APP_CLASSES)

    def test_restored_box_is_online(self, trained_box):
        restored = loads_exbox(dumps_exbox(trained_box))
        assert restored.admittance.is_online
        assert restored.admittance.n_samples == trained_box.admittance.n_samples

    def test_restored_decisions_match(self, trained_box):
        restored = loads_exbox(dumps_exbox(trained_box))
        from repro.core.excr import encode_event
        from repro.traffic.arrival import FlowEvent

        rng = np.random.default_rng(62)
        agree = 0
        trials = 40
        for _ in range(trials):
            counts = tuple(int(v) for v in rng.integers(0, 4, size=3))
            event = FlowEvent(
                matrix_before=counts,
                app_class_index=int(rng.integers(3)),
                snr_level=0,
            )
            x = encode_event(event)
            if trained_box.admittance.classify(x) == restored.admittance.classify(x):
                agree += 1
        assert agree == trials

    def test_restored_classifier_settings(self, estimator):
        # Non-default guard/warm-start/CV settings survive the round trip,
        # and original and restored boxes decide a seeded stream alike.
        box = _train_online(
            estimator, 63, guard_margin=0.5, warm_start=False, cv_check_every=5
        )
        restored = loads_exbox(dumps_exbox(box))
        original, loaded = box.admittance, restored.admittance
        assert (
            (loaded.guard_margin, loaded.warm_start, loaded.cv_check_every)
            == (original.guard_margin, original.warm_start, original.cv_check_every)
            == (0.5, False, 5)
        )
        testbed = WiFiTestbed()
        decisions = {"original": [], "restored": []}
        for name, b in (("original", box), ("restored", restored)):
            stream, outcomes = np.random.default_rng(64), np.random.default_rng(65)
            while b.active_flows:
                b.handle_departure(b.active_flows[0])
            for client in range(1, 81):
                cls = APP_CLASSES[int(stream.integers(3))]
                decision = b.handle_arrival(FlowRequest(client_id=client, app_class=cls))
                decisions[name].append(decision.admitted)
                specs = [(f.app_class, f.snr_db) for f in b.active_flows]
                b.report_outcome(decision, testbed.run_flows(specs[:10], rng=outcomes))
                if len(b.active_flows) > 6:
                    b.handle_departure(b.active_flows[int(stream.integers(len(b.active_flows)))])
        assert decisions["original"] == decisions["restored"]

    def test_restored_qoe_models_identical(self, trained_box):
        restored = loads_exbox(dumps_exbox(trained_box))
        for cls in APP_CLASSES:
            original = trained_box.qoe_estimator.model_for(cls)
            loaded = restored.qoe_estimator.model_for(cls)
            assert loaded == original

    def test_active_flows_not_persisted(self, trained_box, estimator):
        box = loads_exbox(dumps_exbox(trained_box))
        assert box.active_flows == []
        assert box.current_matrix.total_flows == 0

    def test_file_roundtrip(self, trained_box, tmp_path):
        path = tmp_path / "exbox.json"
        dump_exbox(trained_box, path)
        restored = load_exbox(path)
        assert restored.admittance.is_online

    def test_bootstrap_phase_snapshot(self, estimator):
        box = ExBox.with_defaults(batch_size=10)
        box.qoe_estimator = estimator
        box.admittance.add_sample([0.0, 0.0, 0.0, 0.0], 1)
        restored = loads_exbox(dumps_exbox(box))
        assert restored.admittance.phase is Phase.BOOTSTRAP
        assert restored.admittance.n_samples == 1

    @pytest.mark.parametrize("warm_start", [True, False])
    @pytest.mark.parametrize("max_buffer", [None, 25])
    @pytest.mark.parametrize("replace_repeated", [True, False])
    def test_buffer_options_roundtrip(self, replace_repeated, max_buffer, warm_start):
        # The buffer options survive the round trip and keep acting on the
        # restored buffer: a small grid repeats (and relabels) matrices,
        # and the cap evicts, both before and after the snapshot.
        options = dict(
            replace_repeated=replace_repeated, max_buffer=max_buffer, warm_start=warm_start
        )
        box = ExBox.with_defaults(batch_size=10, **options)
        rng = np.random.default_rng(66)

        def stream(n):
            for _ in range(n):
                x = rng.integers(0, 4, size=4).astype(float)
                yield x, 1 if x.sum() + rng.normal() < 6.0 else -1

        for x, y in stream(20):
            box.admittance.add_sample(x, y)
        box.admittance.force_online()
        for x, y in stream(40):
            box.admittance.observe_online(x, y)
        restored = loads_exbox(dumps_exbox(box))
        original, loaded = box.admittance, restored.admittance
        for classifier in (original, loaded):
            assert {name: getattr(classifier, name) for name in options} == options
        probe = rng.integers(0, 4, size=(30, 4)).astype(float)
        for _ in range(2):
            for got, want in zip(loaded.training_set(), original.training_set()):
                assert np.array_equal(got, want)
            if not warm_start:
                # A cold retrain depends on the buffer alone.
                assert np.array_equal(loaded._margins(probe), original._margins(probe))
            for x, y in stream(30):
                original.observe_online(x, y)
                loaded.observe_online(x, y)

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            loads_exbox('{"format_version": 99}')

    def test_v2_snapshot_refused(self, trained_box):
        # A v2 snapshot carried the scaler and bandwidth frozen at the
        # last refresh; every retrain now refits both, so restoring one
        # would silently change the model. It is refused instead.
        import json

        state = json.loads(dumps_exbox(trained_box))
        state["format_version"] = 2
        with pytest.raises(ValueError, match="version 2"):
            loads_exbox(json.dumps(state))

    def test_two_level_binner_roundtrip(self, estimator):
        box = ExBox.with_defaults(batch_size=10, n_snr_levels=2)
        box.qoe_estimator = estimator
        restored = loads_exbox(dumps_exbox(box))
        assert restored.binner.n_levels == 2
        assert restored.binner.level_index(50.0) == 1
