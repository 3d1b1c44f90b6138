from foresthopf.report import RunReport


def test_render_shows_five_counterexamples_and_counts_the_rest():
    report = RunReport("demo")
    report.add("seven failures", [f"bad {i}" for i in range(7)])
    report.add("no failure", [])
    assert report.render_text().splitlines() == [
        "FAIL seven failures",
        *[f"  counterexample: bad {i}" for i in range(5)],
        "  ... and 2 more",
        "PASS no failure",
        "some checks FAILED",
    ]
    assert report.exit_code == 1
