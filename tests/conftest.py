import sys

import pytest

from biclosure import (
    antichain,
    boolean_algebra,
    build_poset,
    chain,
    enumerate_posets,
)


@pytest.fixture
def singleton():
    return chain(1)


@pytest.fixture
def two_chain():
    return chain(2)


@pytest.fixture
def four_chain():
    return chain(4)


@pytest.fixture
def pair():
    return antichain(2)


@pytest.fixture
def vee():
    return build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])


@pytest.fixture
def b4():
    return boolean_algebra(2)


@pytest.fixture
def b8():
    return boolean_algebra(3)


@pytest.fixture
def m3():
    return build_poset(
        list("0abc1"),
        [("0", x) for x in "abc"] + [(x, "1") for x in "abc"],
    )


@pytest.fixture
def m4():
    return build_poset(
        list("0abcd1"),
        [("0", x) for x in "abcd"] + [(x, "1") for x in "abcd"],
    )


@pytest.fixture
def n5():
    return build_poset(
        list("0abc1"),
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
    )


@pytest.fixture
def upset_calls(monkeypatch):
    """The rows of each ``_upsets`` call, counted in every biclosure module
    that binds the name."""
    calls = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "biclosure" and hasattr(module, "_upsets"):

            def counted(rows, cap, original=module._upsets):
                calls.append(rows)
                return original(rows, cap)

            monkeypatch.setattr(module, "_upsets", counted)
    return calls


@pytest.fixture(scope="session")
def catalog4():
    """Every isomorphism class with at most 4 elements."""
    out = []
    for n in range(1, 5):
        out.extend(enumerate_posets(n))
    return out


@pytest.fixture(scope="session")
def catalog5():
    return enumerate_posets(5)


@pytest.fixture(scope="session")
def catalog6():
    return enumerate_posets(6)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines where plain `pytest -v` shows them."""
    lines = getattr(sys.modules.get("test_acceptance"), "RESULTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
