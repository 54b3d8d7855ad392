import re
from pathlib import Path

import scbm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in scbm.__all__ if not hasattr(scbm, name)]
    assert not missing


def test_readme_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    mean_total, charged = (float(v) for v in capsys.readouterr().out.split())
    assert abs(mean_total - 4.0) < 0.5
    assert 0.0 < charged < 1.0
