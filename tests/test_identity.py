import platform
import sys
from pathlib import Path

from documents import ROWS
from helpers import load_tool

identity = load_tool("identity")


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


_OUTPUTS = {
    "dmaic-json/out/report.json": b'{"total_security_cost": 1}\n',
    "dmaic-json/1.stdout": b"report written to out/report.json\n",
    "dmaic-json/1.stderr": b"",
    "dmaic-json/1.exit": b"0\n",
    "bad/1.stderr": b"error: top_k: expected an integer, got '3'\n",
}


def test_compare_names_only_the_output_one_byte_apart(tmp_path):
    before = _tree(tmp_path / "before", _OUTPUTS)
    after = _tree(tmp_path / "after", {**_OUTPUTS, "dmaic-json/out/report.json":
                                       b'{"total_security_cost": 2}\n'})
    assert identity.compare(before, after) == ["dmaic-json/out/report.json"]
    assert identity.compare(after, before) == ["dmaic-json/out/report.json"]


def test_compare_finds_nothing_between_equal_trees(tmp_path):
    before = _tree(tmp_path / "before", _OUTPUTS)
    after = _tree(tmp_path / "after", _OUTPUTS)
    assert identity.compare(before, after) == []
    assert sorted(identity.digests(after)) == sorted(_OUTPUTS)


def test_compare_names_an_output_that_one_side_lacks(tmp_path):
    before = _tree(tmp_path / "before", _OUTPUTS)
    after = _tree(tmp_path / "after", {**_OUTPUTS, "dmaic-json/2.exit": b"0\n"})
    assert identity.compare(before, after) == ["dmaic-json/2.exit"]


def test_the_corpus_runs_every_rejected_document_under_its_name():
    entries = identity.corpus()
    for name, row in ROWS.items():
        assert entries[name].commands == (list(row.argv),), name
        assert entries[name].files == row.files, name


def test_an_interpreter_is_named_by_its_executable_or_its_install_directory(tmp_path):
    version = platform.python_version()
    assert identity.interpreter(sys.executable) == (sys.executable, version)
    (tmp_path / "bin").mkdir()
    (tmp_path / "bin" / "python3").symlink_to(sys.executable)
    assert identity.interpreter(str(tmp_path)) == (str(tmp_path / "bin" / "python3"), version)
