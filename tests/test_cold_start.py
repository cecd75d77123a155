"""Start-up cost: no command needs scipy or loads numpy.random.

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

# prints, as JSON, the scipy and numpy.random modules loaded after
# `import waveinv` and after each listed command runs through cli.main; with
# "--block-scipy" first, scipy cannot be imported at all
PROBE = """
import json, sys
if sys.argv[1] == "--block-scipy":
    sys.modules["scipy"] = None  # any import of scipy or a submodule raises ImportError
    del sys.argv[1]
import waveinv
from waveinv.cli import main

def unwanted_modules():
    return sorted(
        name for name, module in sys.modules.items()
        if module is not None and (name.split(".")[0] == "scipy" or name.split(".")[:2] == ["numpy", "random"])
    )

loaded = {"import": unwanted_modules()}
for command in sys.argv[3:]:
    code = main(["--config", sys.argv[1], "--out", sys.argv[2], command])
    assert code == 0, (command, code)
    loaded[command] = unwanted_modules()
print(json.dumps(loaded))
"""


def probe(*args: str) -> dict[str, list[str]]:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_surface_manifold_and_report_load_no_scipy(tmp_path):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY)
    out = tmp_path / "out"
    for command in ("gen-refs", "optimize"):  # stored runs for the report
        assert cli_main(["--config", str(cfg_file), "--out", str(out), command]) == 0
    loaded = probe(str(cfg_file), str(out), "surface", "manifold", "report")
    assert loaded == {"import": [], "surface": [], "manifold": [], "report": []}


def test_commands_run_with_scipy_blocked(tmp_path):
    # the gamma priors of gen-refs (truths) and optimize (start points) are
    # drawn by waveinv.stats itself, from its own random stream
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY)
    commands = ("gen-refs", "optimize", "report", "surface", "manifold")
    loaded = probe("--block-scipy", str(cfg_file), str(tmp_path / "out"), *commands)
    assert loaded == dict.fromkeys(("import", *commands), [])
    assert (tmp_path / "out" / "report" / "success_table.csv").is_file()
