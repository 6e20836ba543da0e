"""The test run itself: every failure is reported, and the tests after it
still run."""

pytest_plugins = ["pytester"]


def test_failing_hypothesis_test_does_not_end_the_run(pytester, request):
    # Under the project's warning filters, a failing Hypothesis test is one
    # failure, not an INTERNALERROR that ends the run before the next test.
    filters = "".join(f"\n    {f}" for f in request.config.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x != x

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
