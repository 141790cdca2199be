"""`import sympberry` stays numpy-only, as do `sympberry verify` and `sympberry expm`;
scipy.linalg loads at its first use, and numpy.fft at the first periodic trapezoid.

mpmath, a test dependency (the closed-form exponential's 40-digit oracle),
is never loaded by the package.

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
        import sympberry, sympberry.cli, sympberry.oracles
        mpmath = sorted(name for name in sys.modules if name.startswith("mpmath"))
        print(json.dumps({"file": sympberry.__file__, "scipy": scipy_modules(), "mpmath": mpmath}))
        """,
        child_env,
    )
    assert out["file"] == sympberry.__file__
    assert out["scipy"] == []
    assert out["mpmath"] == []


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


def test_cli_verify_and_expm_load_no_scipy(child_env):
    out = _child_json(
        """
        import contextlib, io
        import sympberry.cli
        codes = []
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            codes.append(sympberry.cli.main(["verify", "--seed", "0"]))
            codes.append(sympberry.cli.main(["expm", "--block-a=0.3,-0.1,-0.1,0.5"]))
            codes.append(sympberry.cli.main(["expm"]))
        passed = sum(line.startswith("[PASS]") for line in buf.getvalue().splitlines())
        print(json.dumps({"codes": codes, "passed": passed, "scipy": scipy_modules()}))
        """,
        child_env,
    )
    assert out == {"codes": [0, 0, 0], "passed": 7, "scipy": []}  # all seven checks ran


def test_circle_phase_verify_and_expm_load_no_fft(child_env):
    # numpy.fft loads at its first use, which is the periodic trapezoid of a closed path
    # without a tangent; none of these commands integrates one
    out = _child_json(
        """
        import contextlib, io
        import numpy as np
        eager = "numpy.fft" in sys.modules  # numpy before 2.0 imports it with numpy
        import sympberry.cli
        from sympberry import OscParams, SympPath, integrate_phase, squeeze_circle_path
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(sympberry.cli.main(["phase", "--kind", "squeeze2", "--R", "2"]))
            codes.append(sympberry.cli.main(["verify", "--seed", "0"]))
            codes.append(sympberry.cli.main(["expm", "--block-a=0.3,-0.1,-0.1,0.5"]))
        before = "numpy.fft" in sys.modules
        p = OscParams(1.0, (1.0,))
        integrate_phase(SympPath(n=1, eval=squeeze_circle_path(1, 0.5, p).eval, closed=True), p)
        after = "numpy.fft" in sys.modules
        print(json.dumps({"eager": eager, "codes": codes, "before": before, "after": after}))
        """,
        child_env,
    )
    if out["eager"]:
        pytest.skip("this numpy imports numpy.fft with numpy itself")
    assert out == {"eager": False, "codes": [0, 0, 0], "before": False, "after": True}


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


_LIBRARY_MODULES = (
    "symplectic_core",
    "sp4_closed_form",
    "gaussian_states",
    "geometric_phase",
    "squeeze_paths",
    "_quadrature",
)


def test_each_public_name_is_declared_once_and_bound_to_its_module():
    # the package star-imports these modules, so a name in two of them would
    # let the later import shadow the earlier one without a word
    modules = [getattr(sympberry, name) for name in _LIBRARY_MODULES]
    owners = {}
    for module in modules:
        for name in module.__all__:
            assert name not in owners, f"{name} is in {owners[name]} and {module.__name__}"
            owners[name] = module.__name__
            assert getattr(sympberry, name) is getattr(module, name), name
    assert len(sympberry.__all__) == len(set(sympberry.__all__))
    assert set(sympberry.__all__) == {"__version__", *owners}
