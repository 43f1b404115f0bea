import pytest
from make_golden import main


@pytest.mark.parametrize("argv", [["--help"], ["-o"], ["a.jsonl", "b.jsonl"]])
def test_make_golden_rejects_options_and_extra_arguments(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == "usage: make_golden.py [OUT]\n"
    assert list(tmp_path.iterdir()) == []
