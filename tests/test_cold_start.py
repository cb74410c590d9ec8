"""Each command imports only what it runs.

Every ``openmap`` command is a fresh process, so what ``import
openmap.cli`` loads is paid on every call.  The package uses no scipy,
and the process pool of ``gd-sweep --jobs > 1`` is imported where it is
used.  A fresh interpreter runs commands that need neither, a
rank-deficient ``realize`` (the row-basis selection) among them, and
checks that neither was loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy", "multiprocessing", "concurrent.futures.process")

SCRIPT = """
import json, sys
import numpy as np
import openmap
import openmap.cli
from openmap.matrixio import matrix_to_payload

heavy = {heavy!r}
tmp = sys.argv[1]

def write(name, mat):
    path = f"{{tmp}}/{{name}}.json"
    with open(path, "w") as fh:
        json.dump(matrix_to_payload(np.asarray(mat, dtype=float)), fh)
    return path

w1 = write("w1", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
w2 = write("w2", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
target = write("target", np.diag([1.0, 1e-4, 0.0]))
light = [
    ["net", "fixture", "--name", "intro"],
    ["net", "gd-sweep", "--jobs", "1", "--trials", "2", "--dims", "2,1,2",
     "--max-iter", "50"],
    ["openness", "check", "--w1", w1, "--w2", w2],
]
codes = [openmap.cli.main(argv + ["--out", f"{{tmp}}/out.json"]) for argv in light]
code = openmap.cli.main(["realize", "--w1", w1, "--w2", w2, "--target", target,
                         "--out", f"{{tmp}}/realize.json"])
loaded = sorted(name for name in heavy if name in sys.modules)
with open(f"{{tmp}}/realize.json") as fh:
    residual = json.load(fh)["result"]["target_residual"]
print(json.dumps({{"codes": codes, "loaded": loaded, "realize": code,
                  "residual": residual}}))
""".format(heavy=HEAVY)


def test_light_commands_load_no_scipy_and_no_process_pool(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0, 0]
    assert got["realize"] == 0
    assert got["residual"] <= 1e-12
    assert got["loaded"] == []
