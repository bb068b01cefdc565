from dendrite import checks


def _crashing_check():
    return 1 // 0


def test_crashed_check_prints_its_traceback_to_stderr(monkeypatch, capsys):
    monkeypatch.setitem(checks.SUITES, "crashy", [("divide", _crashing_check)])
    assert checks.run_suite("crashy") is False
    out, err = capsys.readouterr()
    assert out.startswith("[FAIL] crashy/divide (")
    assert out.rstrip().endswith("exception: ZeroDivisionError('integer division or modulo by zero')")
    assert "Traceback (most recent call last)" in err
    assert "in _crashing_check" in err and "ZeroDivisionError" in err
    assert "Traceback" not in out
