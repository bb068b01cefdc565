import inspect

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


def test_run_suite_prints_one_line_per_check(monkeypatch, capsys):
    stub = [("good", lambda: (True, "all fine")), ("bad", lambda: (False, "off by one"))]
    monkeypatch.setitem(checks.SUITES, "stub", stub)
    assert checks.run_suite("stub") is False
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 2 and err == ""
    assert lines[0].startswith("[PASS] stub/good (") and lines[0].endswith("s): all fine")
    assert lines[1].startswith("[FAIL] stub/bad (") and lines[1].endswith("s): off by one")


def test_run_check_returns_the_result_and_its_seconds(monkeypatch):
    monkeypatch.setitem(checks.SUITES, "stub", [("good", lambda: (True, "all fine"))])
    ok, detail, seconds = checks.run_check("stub", "good")
    assert (ok, detail) == (True, "all fine") and seconds >= 0


def test_checks_take_no_arguments():
    for suite, entries in checks.SUITES.items():
        for label, fn in entries:
            assert not inspect.signature(fn).parameters, f"{suite}/{label}"
