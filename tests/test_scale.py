from helpers import load_tool


def test_a_run_records_its_cpu_time(tmp_path):
    scale = load_tool("scale")
    scale.generate(tmp_path, 3, 50)
    result = scale.run(scale.ROOT / "src", tmp_path, scale.COMMANDS["dmaic"])
    assert result["cpu_s"] > 0
    assert "cpu_s" in scale.MEDIANS
