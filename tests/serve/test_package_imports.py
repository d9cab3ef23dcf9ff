"""Importing part of :mod:`repro.serve` loads only that part.

The campaign registry imports :mod:`repro.serve.jobs` to register the
serve executors, and every campaign start loads the registry.  The
package resolves its exported names on first access, so that start
must not pull in the server, cluster, client and store stacks or the
asyncio, ssl and http.client modules behind them.
"""

import json
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SERVING_STACK = (
    "asyncio", "ssl", "http.client", "repro.serve.cluster",
    "repro.serve.client",
)

PROBE = """
import json, sys
sys.path.insert(0, {src!r})
from repro.campaigns import registry
registry.load_builtins()
print(json.dumps([name for name in {names!r} if name in sys.modules]))
"""


def test_loading_builtins_leaves_the_serving_stack_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         PROBE.format(src=str(SRC), names=SERVING_STACK)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(proc.stdout) == []

