"""Every narrative demo exits cleanly, and the demos and tools use only
simfd's public names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_wave_propagation.py",
                                  "02_correlated_channels.py",
                                  "03_autodiff_and_gradcheck.py",
                                  "04_train_and_transfer.py",
                                  "05_power_sweep.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    # demos 04 and 05 write their CSVs into the working directory
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def private_simfd_reads(path):
    """`module._name` reads and `from simfd... import _name` imports of a
    private simfd name in one script, as (line, text) pairs."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                         if alias.name.split(".")[0] == "simfd")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "simfd":
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.startswith("__"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("script", sorted(
    str(path.relative_to(ROOT)) for folder in ("demos", "tools")
    for path in (ROOT / folder).glob("*.py")))
def test_script_reads_no_private_simfd_name(script):
    assert private_simfd_reads(ROOT / script) == []
