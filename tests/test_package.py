import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import scbm

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    modules = [scbm] + [importlib.import_module("scbm." + info.name) for info in pkgutil.iter_modules(scbm.__path__)]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert not missing


def test_readme_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    mean_total, charged = (float(v) for v in capsys.readouterr().out.split())
    assert abs(mean_total - 4.0) < 0.5
    assert 0.0 < charged < 1.0


def test_import_loads_no_scipy():
    # only the csbp-check KS p-value and the integral-test quadrature load scipy, when they run
    code = (
        "import importlib, pkgutil, sys, scbm, scbm.cli\n"
        "for info in pkgutil.iter_modules(scbm.__path__):\n"
        "    importlib.import_module('scbm.' + info.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
