import importlib.util
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_a_run_records_its_cpu_time(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))  # scale imports bench_pairs beside it
    spec = importlib.util.spec_from_file_location("scale", _TOOLS / "scale.py")
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    scale.generate(tmp_path, 3, 50)
    result = scale.run(scale.ROOT / "src", tmp_path, scale.COMMANDS["dmaic"])
    assert result["cpu_s"] > 0
    assert "cpu_s" in scale.MEDIANS
