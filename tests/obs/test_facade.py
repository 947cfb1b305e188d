"""The Obs facade: wiring and NULL_OBS inertness."""

from repro.obs import NULL_OBS, ManualClock, Obs


def test_recording_wires_tracer_to_registry():
    clock = ManualClock()
    obs = Obs.recording(clock=clock)
    assert obs.enabled is True
    with obs.span("admittance.retrain"):
        clock.advance(0.5)
    hist = obs.registry.histogram("admittance.retrain")
    assert hist.count == 1
    assert abs(hist.sum - 0.5) < 1e-12


def test_delegation_methods():
    obs = Obs.recording(clock=ManualClock())
    obs.counter("c").inc()
    obs.gauge("g").set(3)
    obs.histogram("h", buckets=[1.0]).observe(0.5)
    event = obs.emit("phase_transition", phase="online")
    assert obs.registry.counter("c").value == 1
    assert event["event"] == "phase_transition"
    assert obs.events.of_type("phase_transition") == [event]


def test_null_obs_is_shared_and_inert():
    assert Obs.disabled() is NULL_OBS
    assert NULL_OBS.enabled is False
    NULL_OBS.counter("x").inc(10)
    NULL_OBS.gauge("y").set(5)
    with NULL_OBS.span("z"):
        pass
    assert NULL_OBS.emit("anything", k=1) == {}
    assert len(NULL_OBS.registry) == 0
