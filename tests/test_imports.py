"""`import sympberry` stays numpy-only; scipy.linalg loads at its first use.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already.
"""
import json
import subprocess
import sys
import textwrap

import pytest

import sympberry

_PRELUDE = """
import json, sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))
"""


def _child_json(code, env):
    script = _PRELUDE + textwrap.dedent(code)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(child_env):
    out = _child_json(
        """
        import sympberry, sympberry.cli
        print(json.dumps({"file": sympberry.__file__, "scipy": scipy_modules()}))
        """,
        child_env,
    )
    assert out["file"] == sympberry.__file__
    assert out["scipy"] == []


def test_cli_circle_phase_loads_no_scipy(child_env):
    out = _child_json(
        """
        import contextlib, io
        import sympberry.cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = sympberry.cli.main(["phase", "--kind", "squeeze2", "--R", "2"])
        record = json.loads(buf.getvalue())
        print(json.dumps({"code": code, "gamma": record["gamma"], "scipy": scipy_modules()}))
        """,
        child_env,
    )
    assert out["code"] == 0
    assert out["gamma"] == pytest.approx(sympberry.reference_phase(2, 2.0), rel=1e-8)
    assert out["scipy"] == []


def test_first_exp_map_loads_scipy_linalg(child_env):
    out = _child_json(
        """
        import numpy as np
        from sympberry import LieAlgElement, exp_map, omega
        X = np.random.default_rng(5).uniform(-0.6, 0.6, size=(4, 4))
        L = LieAlgElement(2, (X + X.T) / 2.0)
        before = "scipy.linalg" in sys.modules
        M = exp_map(L)
        after = "scipy.linalg" in sys.modules
        import scipy.linalg
        exact = bool(np.array_equal(M.data, scipy.linalg.expm(omega(2) @ L.data)))
        print(json.dumps({"before": before, "after": after, "exact": exact}))
        """,
        child_env,
    )
    assert out == {"before": False, "after": True, "exact": True}
