"""`repro obs` subcommands (and the top-level CLI hand-off)."""

import io
import json

from repro.cli import main as repro_main
from repro.obs import MetricsRegistry, snapshot, write_bench_json
from repro.obs.cli import main as obs_main, render_snapshot


def bench_file(tmp_path):
    reg = MetricsRegistry()
    reg.counter("exbox.decisions.admitted").inc(12)
    reg.gauge("exbox.flows.active").set(5)
    reg.histogram("admittance.retrain", buckets=[0.1, 1.0]).observe(0.25)
    return write_bench_json(
        tmp_path / "BENCH_obs.json", reg, meta={"suite": "latency", "seed": 0}
    )


def test_render_snapshot_summary(tmp_path):
    payload = json.loads(bench_file(tmp_path).read_text(encoding="utf-8"))
    text = render_snapshot(payload)
    assert "meta:" in text and "suite: latency" in text
    assert "exbox.decisions.admitted" in text
    assert "exbox.flows.active" in text
    assert "admittance.retrain" in text
    assert "250.000 ms" in text  # the 0.25 s retrain formatted sub-second


def test_render_bare_snapshot_without_meta():
    text = render_snapshot({"counters": {"a": 1}, "gauges": {}, "histograms": {}})
    assert "meta:" not in text
    assert "a" in text


def test_render_empty_snapshot():
    text = render_snapshot({"counters": {}, "gauges": {}, "histograms": {}})
    assert "empty" in text


def test_main_bare_snapshot_means_summary(tmp_path):
    path = bench_file(tmp_path)
    out = io.StringIO()
    assert obs_main(["--snapshot", str(path)], out=out) == 0
    assert out.getvalue() == render_snapshot(
        json.loads(path.read_text(encoding="utf-8"))
    )


def test_main_missing_snapshot_returns_2(tmp_path):
    out = io.StringIO()
    assert obs_main(["--snapshot", str(tmp_path / "nope.json")], out=out) == 2
    assert "not found" in out.getvalue()


def test_top_level_cli_dispatches_obs(tmp_path):
    path = bench_file(tmp_path)
    out = io.StringIO()
    assert repro_main(["obs", "--snapshot", str(path)], out=out) == 0
    assert "exbox.decisions.admitted" in out.getvalue()


def test_explicit_summary_subcommand(tmp_path):
    path = bench_file(tmp_path)
    out = io.StringIO()
    assert obs_main(["summary", "--snapshot", str(path)], out=out) == 0
    assert "exbox.decisions.admitted" in out.getvalue()


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def _write_snapshots(tmp_path):
    a = bench_file(tmp_path)
    reg = MetricsRegistry()
    reg.counter("exbox.decisions.admitted").inc(30)
    reg.gauge("exbox.flows.active").set(5)
    hist = reg.histogram("admittance.retrain", buckets=[0.1, 1.0])
    hist.observe(0.25)
    hist.observe(5.0)
    b = write_bench_json(tmp_path / "BENCH_b.json", reg, meta={"suite": "latency"})
    return a, b


def test_diff_reports_changes(tmp_path):
    a, b = _write_snapshots(tmp_path)
    out = io.StringIO()
    assert obs_main(["diff", str(a), str(b)], out=out) == 0
    text = out.getvalue()
    assert "exbox.decisions.admitted" in text and "+18" in text
    assert "admittance.retrain" in text


def test_diff_exit_code_flag(tmp_path):
    a, b = _write_snapshots(tmp_path)
    out = io.StringIO()
    assert obs_main(["diff", str(a), str(b), "--exit-code"], out=out) == 1
    out = io.StringIO()
    assert obs_main(["diff", str(a), str(a), "--exit-code"], out=out) == 0


def test_diff_missing_file_returns_2(tmp_path):
    a = bench_file(tmp_path)
    out = io.StringIO()
    assert obs_main(["diff", str(a), str(tmp_path / "nope.json")], out=out) == 2
    assert "not found" in out.getvalue()


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------
def _write_gated_baseline(tmp_path):
    reg = MetricsRegistry()
    hist = reg.histogram("latency.decision")
    for v in (0.001, 0.002, 0.003):
        hist.observe(v)
    payload = {
        "meta": {"suite": "latency"},
        "metrics": snapshot(reg),
        "gate": {
            "histograms": {
                "latency.decision": {"stat": "p99", "max_ratio": 10.0}
            },
            "gauges": {},
        },
    }
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_check_passes_on_baseline(tmp_path):
    base = _write_gated_baseline(tmp_path)
    out = io.StringIO()
    rc = obs_main(
        ["check", "--baseline", str(base), "--candidate", str(base)], out=out
    )
    assert rc == 0
    assert "baseline gate: OK" in out.getvalue()


def test_check_fails_on_regression(tmp_path):
    base = _write_gated_baseline(tmp_path)
    reg = MetricsRegistry()
    for v in (0.001, 0.002, 0.5):
        reg.histogram("latency.decision").observe(v)
    cand = tmp_path / "candidate.json"
    cand.write_text(
        json.dumps({"metrics": snapshot(reg)}), encoding="utf-8"
    )
    out = io.StringIO()
    rc = obs_main(
        ["check", "--baseline", str(base), "--candidate", str(cand)], out=out
    )
    assert rc == 1
    assert "FAIL" in out.getvalue()


def test_check_missing_file_returns_2(tmp_path):
    base = _write_gated_baseline(tmp_path)
    out = io.StringIO()
    rc = obs_main(
        ["check", "--baseline", str(base),
         "--candidate", str(tmp_path / "nope.json")],
        out=out,
    )
    assert rc == 2
