import ast
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


def test_commands_run_with_scipy_blocked(tmp_path):
    # scbm needs numpy alone: with scipy unimportable, every module imports, and csbp-check and integral-test
    # (the commands with a statistics or quadrature step) run to exit 0
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import scbm\n"
        "from scbm.cli import main\n"
        "for info in pkgutil.iter_modules(scbm.__path__):\n"
        "    importlib.import_module('scbm.' + info.name)\n"
        "out = sys.argv[1]\n"
        "assert main(['csbp-check', '--seed', '7', '--out', out, '--config', sys.argv[2]]) == 0\n"
        "assert main(['integral-test', '--seed', '7', '--out', out, '--config', sys.argv[2]]) == 0\n"
    )
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(
        "[csbp-check]\nsampler_n = 2000\nentrance_n = 2000\nflow_points = 2\n"
        "[integral-test]\nseries_n = 3\nseq_n = 2\n",
        encoding="utf-8",
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    args = [sys.executable, "-c", code, str(tmp_path / "out"), str(cfg)]
    proc = subprocess.run(args, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


# imports kept for their side effect: numpy 2 loads numpy.random and numpy.ma on first use
SIDE_EFFECT_IMPORTS = {("__init__.py", "numpy.ma"), ("__init__.py", "numpy.random")}


def test_every_import_is_used():
    # every top-level import binds a name that its module reads or lists in __all__
    unused = []
    for path in sorted((SRC / "scbm").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = importlib.import_module("scbm" if path.stem == "__init__" else f"scbm.{path.stem}")
        exported = set(getattr(module, "__all__", ()))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read | exported and (path.name, alias.name) not in SIDE_EFFECT_IMPORTS:
                        unused.append(f"{path.name}: {alias.name}")
    assert not unused
