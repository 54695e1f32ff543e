from destride import format_report, run_selftest


def test_run_selftest_all_properties_pass():
    results = run_selftest(seed=0)
    assert [r.name for r in results] == ["network-destride"]
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_format_report_deterministic():
    results = run_selftest(seed=7)
    a = format_report(results, seed=7)
    b = format_report(run_selftest(seed=7), seed=7)
    assert a == b
    assert a.splitlines()[0] == "selftest seed 7"
    assert a.splitlines()[-1] == "1/1 properties passed"
    assert all(line.startswith("PASS") for line in a.splitlines()[1:-1])
