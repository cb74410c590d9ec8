"""Each command imports only what it runs.

Every ``openmap`` command is a fresh process, so what ``import
openmap.cli`` loads is paid on every call.  ``scipy.linalg`` (for the
``geqp3`` pivots of ``numcore.bounded_basis``) and the process pool of
``gd-sweep --jobs > 1`` are imported where they are used.  A fresh
interpreter runs commands that need neither and checks that neither was
loaded, then runs a rank-deficient ``realize``, which loads scipy.
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
loaded = sorted(name for name in heavy if name in sys.modules)
code = openmap.cli.main(["realize", "--w1", w1, "--w2", w2, "--target", target,
                         "--out", f"{{tmp}}/realize.json"])
with open(f"{{tmp}}/realize.json") as fh:
    residual = json.load(fh)["result"]["target_residual"]
print(json.dumps({{"codes": codes, "loaded": loaded, "realize": code,
                  "residual": residual, "scipy_linalg": "scipy.linalg" in sys.modules}}))
""".format(heavy=HEAVY)


def test_light_commands_load_no_scipy_and_no_process_pool(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0, 0]
    assert got["loaded"] == []
    # the rank-deficient realize selects a bounded row basis, which loads scipy
    assert got["realize"] == 0
    assert got["residual"] <= 1e-12
    assert got["scipy_linalg"] is True
