"""Start-up cost: scipy is loaded only where a gamma prior is drawn.

Each check runs in a fresh interpreter, because other test modules import
scipy into the pytest process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from waveinv.cli import main as cli_main

SRC = Path(__file__).resolve().parents[1] / "src"

TINY = "n_refs = 2\nlhs_restarts = 5\neval_budget = 20\ngrid_n = 5\nmanifold_grid_n = 3\nseed = 2\n"

# prints, as JSON, the scipy modules loaded after `import waveinv` and after
# each listed command runs through cli.main
PROBE = """
import json, sys
import waveinv
from waveinv.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
for command in sys.argv[3:]:
    code = main(["--config", sys.argv[1], "--out", sys.argv[2], command])
    assert code == 0, (command, code)
    loaded[command] = scipy_modules()
print(json.dumps(loaded))
"""


def probe(cfg_file: Path, out: Path, *commands: str) -> dict[str, list[str]]:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(cfg_file), str(out), *commands],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_surface_manifold_and_report_load_no_scipy(tmp_path):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY)
    out = tmp_path / "out"
    for command in ("gen-refs", "optimize"):  # stored runs for the report
        assert cli_main(["--config", str(cfg_file), "--out", str(out), command]) == 0
    loaded = probe(cfg_file, out, "surface", "manifold", "report")
    assert loaded == {"import": [], "surface": [], "manifold": [], "report": []}


def test_gen_refs_loads_scipy_special(tmp_path):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY)
    loaded = probe(cfg_file, tmp_path / "out", "gen-refs")
    assert loaded["import"] == []
    assert "scipy.special" in loaded["gen-refs"]
