"""Exit 1 unless a traced perfbench run counted calls of every span named
on the command line.  The run's output is read from stdin; its last line is
the JSON result that perfbench/run.py prints.
Usage: python3 perfbench/run.py ... --trace 1 | python3 span-called.py <span> ...
"""

import json
import sys

metrics = json.loads(sys.stdin.read().splitlines()[-1])["metrics"]
missing = [name for name in sys.argv[1:] if not metrics[f"{name}.calls"]["value"]]
for name in missing:
    print(f"span {name} counted no calls", file=sys.stderr)
sys.exit(1 if missing else 0)
