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


def test_entry_points_import_only_numpy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(entry_points=ENTRY_POINTS)],
        env=env, capture_output=True, text=True, check=True,
    )
    third_party = set(json.loads(out.stdout))
    # repro itself sits in site-packages under a regular (non-editable) install.
    assert third_party - {"repro"} == {"numpy"}
