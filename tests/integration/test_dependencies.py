"""numpy is the only runtime dependency: no entry point may pull in another
third-party package.

Development machines have more packages installed than ``pyproject.toml``
declares, so a stray import would not fail there. This test imports the
entry points in a fresh interpreter and lists every newly loaded module
that lives in a site-packages directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.experiments.figures",
    "repro.experiments.closedloop",
    "repro.core.fleet",
)

_PROBE = """
import importlib, json, site, sys, sysconfig
before = set(sys.modules)
for name in {entry_points!r}:
    importlib.import_module(name)
site_dirs = tuple(
    {{sysconfig.get_paths()[key] for key in ("purelib", "platlib")}}
    | set(site.getsitepackages()) | {{site.getusersitepackages()}}
)
print(json.dumps(sorted({{
    name.partition(".")[0]
    for name, module in sys.modules.items()
    if name not in before
    and (getattr(module, "__file__", None) or "").startswith(site_dirs)
}})))
"""


def _probe(code):
    """Run ``code`` in a fresh interpreter that imports this ``repro``;
    return the JSON it prints."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_entry_points_import_only_numpy():
    third_party = set(_probe(_PROBE.format(entry_points=ENTRY_POINTS)))
    # repro itself sits in site-packages under a regular (non-editable) install.
    assert third_party - {"repro"} == {"numpy"}


_LEAN_PROBE = """
import json, sys
import numpy as np
before = set(sys.modules)
from repro.core.exbox import ExBox
from repro.traffic.flows import FlowRequest, WEB
box = ExBox.with_defaults(batch_size=10, min_bootstrap_samples=10)
rng = np.random.default_rng(36)
while not box.admittance.is_online:
    counts = rng.integers(0, 5, size=3).astype(float)
    x = np.append(counts, float(rng.integers(0, 3)))
    box.admittance.observe_bootstrap(x, 1 if counts.sum() <= 5 else -1)
for i in range(20):
    box.handle_arrival(FlowRequest(client_id=i, app_class=WEB))
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_bootstrap_and_decisions_load_no_pool_or_masked_arrays():
    """A seeded bootstrap (default ``cv_jobs``, so serial CV at this
    size) and online decisions load neither ``concurrent.futures`` (the
    CV process pool) nor ``numpy.ma`` (which ``np.unique`` imports on
    numpy 2.x): both cost resident memory on every serving process."""
    loaded = _probe(_LEAN_PROBE)
    heavy = ("numpy.ma", "concurrent.futures")
    assert [name for name in loaded if name.startswith(heavy)] == []
