"""What a process loads, and how the process entry ends the process.

``import qbg`` loads no numpy, and ``qbg map``, ``clayton`` and
``invert-map`` run without it, or the standard modules the light path does
not need.  ``import qbg.cli`` loads every numeric module, which code that
rebinds qbg's functions right after that import relies on.  Each check runs
in a fresh interpreter, because this test process has long since imported
everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Every warning is an error in a child, as in this process.
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error"}

NUMERIC = ["qbg.equivalence", "qbg.extbg", "qbg.maxent", "qbg.qstat", "qbg.spectrum"]

#: The submodules that ``import qbg`` leaves unloaded until first use.
SUBMODULES = {"cli", "commands", "equivalence", "extbg", "maxent", "params", "qstat",
              "spectrum"}

#: Standard modules that ``map``, ``invert-map`` and ``clayton`` do without.
NOT_ON_LIGHT_PATH = {"dataclasses", "inspect", "fractions", "decimal", "json"}

#: Names that moved to qbg.params and that their old module still imports,
#: by that module.
MOVED = {
    "qbg.qstat": ["QParams"],
    "qbg.extbg": ["MultiplierVector", "CenteredMultiplierVector", "MomentVector",
                  "load_multipliers"],
    "qbg.equivalence": ["QParams", "q_to_multipliers"],
    "qbg.spectrum": ["_pairs", "_field"],
}

#: Names that moved to qbg.params and no longer resolve from their old module.
RETIRED = {
    "qbg.extbg": ["MAX_ORDER", "ClaytonParams", "clayton_multipliers"],
    "qbg.equivalence": ["clayton_to_q", "multipliers_to_q"],
}


def child(code, *args):
    """Run ``code`` in a fresh interpreter; returns the JSON it printed last."""
    result = subprocess.run([sys.executable, "-c", code, *args], env=ENV,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


LOADED = ("json.dumps(sorted(m for m in sys.modules "
          "if m.split('.')[0] in ('numpy', 'scipy', 'qbg')))")


def imported_modules(stderr):
    """Module names from the ``-X importtime`` lines in ``stderr``."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


@pytest.fixture
def multiplier_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,1.0\n2,0.01\n3,0.00013333333333333333\n")
    return path


@pytest.mark.parametrize("args", [
    ["map", "--q", "0.98", "--beta", "1", "--order", "3"],
    ["clayton", "--beta", "1", "--delta", "0.01"],
    ["invert-map", "--multipliers", "{m}"],
])
def test_light_subcommands_load_no_numpy(tmp_path, multiplier_file, args):
    args = [a.replace("{m}", str(multiplier_file)) for a in args]
    out = tmp_path / "r.csv"
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qbg", *args, "--out", str(out)],
        env=ENV, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    modules = imported_modules(result.stderr)
    assert {"qbg.commands", "qbg.params"} <= modules
    assert not [m for m in modules if m.split(".")[0] in ("numpy", "scipy")]
    assert not modules & NOT_ON_LIGHT_PATH
    report = out.read_text(encoding="utf-8")
    assert report.startswith(f"# tool: qbg 0.1.0\n# subcommand: {args[0]}\n")


def test_map_with_config_matches_flags(tmp_path):
    """``json`` is imported only for ``--config``, and the run still reads it."""
    config = tmp_path / "c.json"
    config.write_text('{"q": 0.98, "beta": 1, "order": 3}')
    reports = []
    for name, args in (("flags", ["--q", "0.98", "--beta", "1", "--order", "3"]),
                       ("config", ["--config", str(config)])):
        out = tmp_path / f"{name}.csv"
        result = subprocess.run([sys.executable, "-m", "qbg", "map", *args, "--out", str(out)],
                                env=ENV, capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert reports[0].endswith(b"n,beta_n\n1,1.0\n2,0.010000000000000009\n"
                               b"3,0.00013333333333333358\n")


def test_bare_import_loads_no_numpy():
    assert child(f"import sys, json, qbg; print({LOADED})") == ["qbg", "qbg.errors"]


def test_cli_import_loads_the_numeric_modules():
    loaded = child(f"import sys, json, qbg.cli; print({LOADED})")
    assert set(NUMERIC) <= set(loaded)
    assert "numpy" in loaded


def test_cli_import_loads_no_dataclasses():
    # every qbg record is a plain class on params._Record
    assert child("import sys, json, qbg.cli; print(json.dumps('dataclasses' in sys.modules))") \
        is False


def test_submodule_resolves_as_attribute():
    code = ("import sys, json, qbg; m = qbg.extbg; "
            "print(json.dumps([m.__name__, m is sys.modules['qbg.extbg']]))")
    assert child(code) == ["qbg.extbg", True]


def test_dir_and_submodule_attributes_load_no_numpy():
    # dir(qbg) lists the lazy names without importing them; a submodule
    # reached as an attribute after a bare ``import qbg`` is imported then
    code = ("import sys, json, qbg\n"
            "names = dir(qbg)\n"
            "numpy_after_dir = 'numpy' in sys.modules\n"
            "home = qbg.extbg.ext_distribution.__module__\n"
            "print(json.dumps([names, numpy_after_dir, home, qbg.__all__]))")
    names, numpy_after_dir, home, public = child(code)
    assert set(public) | SUBMODULES <= set(names)
    assert numpy_after_dir is False
    assert home == "qbg.extbg"


def test_every_public_name_resolves():
    code = ("import json, qbg; from qbg import *; "
            "print(json.dumps([n for n in qbg.__all__ "
            "if getattr(qbg, n) is not globals()[n]]))")
    assert child(code) == []


def test_unknown_name_is_an_attribute_error():
    code = ("import json, qbg\n"
            "try:\n    qbg.no_such_name\nexcept AttributeError as e:\n"
            "    print(json.dumps(str(e)))")
    assert child(code) == "module 'qbg' has no attribute 'no_such_name'"


def test_moved_names_are_one_object():
    code = ("import importlib, json, qbg.params as params\n"
            f"moved = {MOVED!r}\n"
            "print(json.dumps([f'{mod}.{n}' for mod, names in moved.items() for n in names\n"
            "                  if getattr(importlib.import_module(mod), n)\n"
            "                  is not getattr(params, n)]))")
    assert child(code) == []


def test_retired_names_resolve_only_from_qbg_and_params():
    code = ("import importlib, json, qbg, qbg.params as params\n"
            f"retired = {RETIRED!r}\n"
            "print(json.dumps([[f'{mod}.{n}', hasattr(importlib.import_module(mod), n),\n"
            "                   getattr(qbg, n) is getattr(params, n)]\n"
            "                  for mod, names in retired.items() for n in names]))")
    assert child(code) == [[f"{mod}.{n}", False, True]
                           for mod, names in RETIRED.items() for n in names]


def test_numpy_scalars_become_floats_without_importing_numpy():
    code = ("import sys, json, qbg.params as p\n"
            "before = 'numpy' in sys.modules\n"
            "import numpy as np\n"
            "m = p.MultiplierVector((np.float64(0.5), np.int64(2), 3))\n"
            "c = p.CenteredMultiplierVector((1.0,), np.float32(0.5))\n"
            "print(json.dumps([before, [type(x).__name__ for x in m.coeffs],"
            " type(c.center).__name__]))")
    assert child(code) == [False, ["float", "float", "int"], "float"]


def test_in_process_main_leaves_the_collector_alone(tmp_path):
    spectrum = tmp_path / "s.csv"
    spectrum.write_text("0,1\n1,2\n2,1\n")
    code = ("import gc, json, sys\n"
            "state = lambda: [gc.isenabled(), gc.get_freeze_count()]\n"
            "before = state()\n"
            "import qbg, qbg.cli\n"
            "statuses = [qbg.cli.main(['map', '--q', '0.9', '--beta', '1', '--order', '2',"
            " '--out', sys.argv[2]]),\n"
            "            qbg.cli.main(['dist-q', '--spectrum', sys.argv[1], '--q', '0.9',"
            " '--beta', '1', '--out', sys.argv[2]])]\n"
            "print(json.dumps([before, state(), statuses]))")
    before, after, statuses = child(code, str(spectrum), str(tmp_path / "r.csv"))
    assert after == before
    assert statuses == [0, 0]


def buffered_env():
    """``ENV`` without ``PYTHONUNBUFFERED``, so a child's stdout is block
    buffered when it is a pipe, and a flush the entry leaves out shows."""
    return {key: value for key, value in ENV.items() if key != "PYTHONUNBUFFERED"}


#: Runs the process entry on the arguments that follow it, after registering
#: an ``atexit`` handler and leaving text in stdout's and stderr's buffers.
ENTRY = ("import atexit, sys\n"
         "from qbg.__main__ import entry\n"
         "atexit.register(print, 'atexit ran')\n"
         "sys.stdout.write('out before')\n"
         "sys.stderr.write('err before')\n"
         "sys.argv = ['qbg', *sys.argv[1:]]\n"
         "entry()\n"
         "print('entry returned')")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv, status", [
    (["map", "--q", "0.9", "--beta", "1", "--order", "2"], 0),
    (["map", "--q", "0.9", "--beta", "1"], 1),
])
def test_process_entry_ends_the_process_at_once(tmp_path, argv, status, unbuffered):
    """``entry()`` ends the process with ``main()``'s status, after flushing
    what stdout and stderr hold and writing the whole report; code after it
    and ``atexit`` handlers do not run."""
    out = tmp_path / "r.csv"
    env = {**ENV, "PYTHONUNBUFFERED": "1"} if unbuffered else buffered_env()
    result = subprocess.run([sys.executable, "-c", ENTRY, *argv, "--out", str(out)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == status
    assert result.stdout == "out before"
    if status == 0:
        assert result.stderr == "err before"
        assert out.read_text(encoding="utf-8") == (
            "# tool: qbg 0.1.0\n# subcommand: map\n# q=0.9\n# beta=1.0\n# order=2\n"
            "n,beta_n\n1,1.0\n2,0.04999999999999999\n")
    else:
        assert result.stderr == "err beforeValueError: map requires --order\n"
        assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_process_entry_fails_when_its_flush_fails(tmp_path):
    """A report written, but stdout's buffer lost: the process ends nonzero."""
    out = tmp_path / "r.csv"
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-c", ENTRY, "map", "--q", "0.9", "--beta", "1", "--order", "2",
             "--out", str(out)], env=buffered_env(), stdout=full, stderr=subprocess.PIPE,
            text=True)
    assert result.returncode != 0
    assert "OSError" in result.stderr
    assert out.exists()


ENTRY_CASES = pytest.mark.parametrize("args, status", [
    (["dist-q", "--spectrum", "{s}", "--q", "0.9", "--beta", "1", "--out", "{o}"], 0),
    (["dist-q", "--spectrum", "{bad}", "--q", "0.9", "--beta", "1", "--out", "{o}"], 1),
    (["dist-q", "--no-such-flag"], 2),
    (["equiv", "--help"], 0),
])


def entry_and_main_runs(tmp_path, args, env):
    """(status, stdout, stderr) of ``python -m qbg`` and of a process that
    calls ``qbg.cli.main`` without the entry, on the same arguments."""
    (tmp_path / "s.csv").write_text("0,1\n1,2\n2,1\n")
    (tmp_path / "bad.csv").write_text("0,1\noops\n")
    args = [a.format(s=tmp_path / "s.csv", bad=tmp_path / "bad.csv", o=tmp_path / "r.csv")
            for a in args]
    runs = []
    for launcher in (["-m", "qbg"], ["-c", "import sys, qbg.cli; sys.exit(qbg.cli.main())"]):
        result = subprocess.run([sys.executable, *launcher, *args], env=env,
                                capture_output=True, text=True)
        runs.append((result.returncode, result.stdout, result.stderr))
    return runs


@ENTRY_CASES
def test_process_entry_keeps_status_and_output(tmp_path, args, status):
    """``python -m qbg`` exits, and writes to stdout and stderr, as a process
    that calls ``qbg.cli.main`` without the entry does."""
    runs = entry_and_main_runs(tmp_path, args, ENV)
    assert runs[0] == runs[1]
    assert runs[0][0] == status


@ENTRY_CASES
def test_process_entry_keeps_status_and_output_buffered(tmp_path, args, status):
    """The same with ``PYTHONUNBUFFERED`` unset, so that an unbuffered stdout
    cannot hide a flush the entry leaves out."""
    runs = entry_and_main_runs(tmp_path, args, buffered_env())
    assert runs[0] == runs[1]
    assert runs[0][0] == status


def test_script_runs_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"qbg": "qbg.__main__:entry"}
