"""The scripts under ``scripts/`` start, and ``compare_logs.py`` trains the configs it names."""

import glob
import os
import subprocess
import sys

import pytest

from pinnopt.harness import RunConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))


@pytest.mark.parametrize("script", SCRIPTS, ids=os.path.basename)
def test_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, script, "--help"], cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_compare_logs_configs_are_valid_run_configs(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    import compare_logs

    configs = compare_logs.configs()
    assert len(configs) == 52  # keyed by name, so 52 entries have 52 distinct names
    for name, cfg in configs.items():
        RunConfig.from_dict(dict(cfg, output_dir=str(tmp_path / name)))
