"""tools/cmp_presets.py: the verdict per config and the exit status, with the
parent's unpacking and the pdra.bench runs replaced by stand-ins."""

import importlib.util
import pathlib

import pytest

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
PARENT = "parent-tree"  # the stand-in for the unpacked parent


@pytest.fixture
def cmp_presets(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))  # for its import of bench_pairs
    spec = importlib.util.spec_from_file_location("cmp_presets", _TOOLS / "cmp_presets.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "unpack_parent", lambda rev, dest: PARENT)
    return module


def fake_runs(module, monkeypatch, differ=None):
    """Every run exits 0 with the same stdout and CSV, except that the
    parent's CSV of config differ has other bytes."""
    def run_config(tree, args, out_dir):
        csv = b"a,b\n1,2\n"
        if tree == PARENT and args == differ:
            csv = b"a,b\n1,3\n"
        return 0, "wrote <out>\n", csv

    monkeypatch.setattr(module, "run_config", run_config)


def test_identical_trees_exit_zero(cmp_presets, monkeypatch, capsys):
    fake_runs(cmp_presets, monkeypatch)
    assert cmp_presets.main(["--parent", "HEAD"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(cmp_presets.CONFIGS) + 1
    assert all(line.startswith("same: ") for line in lines[:-1])
    assert lines[-1] == f"0 of {len(cmp_presets.CONFIGS)} configs differ"


def test_one_differing_csv_exits_one_and_names_its_config(cmp_presets, monkeypatch, capsys):
    config = ["--preset", "fig6", "--mode", "simulate", "--trials", "60", "--seed", "5"]
    assert config in cmp_presets.CONFIGS
    fake_runs(cmp_presets, monkeypatch, differ=config)
    assert cmp_presets.main(["--parent", "HEAD"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("same: ")] == [
        f"differ (CSV): {' '.join(config)} (exit 0)",
        f"1 of {len(cmp_presets.CONFIGS)} configs differ",
    ]
