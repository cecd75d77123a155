"""Steady state of the inversion loop: model evaluations that do not
page-fault.

A temporary freed at the end of every evaluation can leave more free
memory at the heap top than glibc's trim threshold; the allocator then
returns those pages to the system and faults them back in on the next
evaluation.  The check runs in a fresh interpreter, because other test
modules load scipy, whose own allocations pad the heap and hide the
faults, into the pytest process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("resource")

SRC = Path(__file__).resolve().parents[1] / "src"

# prints, as JSON, the minor page faults per model evaluation of a PEEK
# modified-LM batch and a BFGS batch, after one warm-up batch, with scipy
# blocked.  20 references: with 5 or 8 the heap top of the per-evaluation
# temporaries happened to stay under the trim threshold, and 65-80 faults
# per evaluation showed only from about 12 references on.
PROBE = """
import json, resource, sys
sys.modules["scipy"] = None  # any import of scipy raises ImportError
from dataclasses import replace
from waveinv import bench

cfg = bench.load_config(None, {"material": "PEEK", "n_refs": 20, "seed": 1, "eval_budget": 50})
refs = bench.gen_refs(cfg)
bench.optimize_batch(cfg, refs)
faults = {}
for batch in (cfg, replace(cfg, optimizer="bfgs", eval_budget=200)):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = bench.optimize_batch(batch, refs)
    spent = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    faults[batch.optimizer] = spent / sum(run.trace.eval_count for run in result.runs)
print(json.dumps(faults))
"""


def test_inversion_batches_do_not_page_fault():
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    faults = json.loads(done.stdout.splitlines()[-1])
    assert faults["modified-lm"] < 1.0, faults
    assert faults["bfgs"] < 1.0, faults
