"""Replay every table the figure suite printed in the terminal summary:
output capture hides the in-test prints of passing tests."""


def pytest_terminal_summary(terminalreporter):
    from repro.bench.harness import RENDERED

    if not RENDERED:
        return
    terminalreporter.section("paper-figure tables")
    for rendered in RENDERED:
        terminalreporter.write_line("")
        terminalreporter.write_line(rendered)
