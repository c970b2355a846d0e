"""``python -m repro.fuzz`` argument validation: usage errors exit 2
before any kernel is generated, never as divergence findings."""

import pytest

from repro.dataflow import ENGINES
from repro.fuzz.__main__ import main
from repro.fuzz.harness import DEFAULT_ENGINES


@pytest.mark.parametrize(
    "name", ["vector", "incremental", "levelized", "compield"]
)
def test_unknown_engine_exits_2(name, tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    status = main(["--engines", f"compiled,{name}", "--count", "1",
                   "--out", str(out)])
    assert status == 2
    err = capsys.readouterr().err
    assert f"unknown engine {name!r}" in err
    for engine in ENGINES:
        assert engine in err
    assert not out.exists()  # rejected up front, nothing was fuzzed


def test_default_engines_are_valid():
    assert set(DEFAULT_ENGINES) <= set(ENGINES)
    assert DEFAULT_ENGINES == ("compiled",)
