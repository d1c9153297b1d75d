import pytest

from vconway import invariants
from vconway.diagram import parse_diagram
from vconway.laurent import ZERO


def term_rows(m):
    """The rows of term dicts that `laurent.det` builds from the PolyMatrix m:
    the form in which `det_terms` hands a residual to `_det_packed` and `_bareiss`."""
    return [{j: dict(row[j]._t) for j in sorted(row) if row[j]._t} for row in m.entries]


def dense(m):
    """The rows of a PolyMatrix, with ZERO in its empty cells."""
    return tuple(tuple(row.get(j, ZERO) for j in range(m.n)) for row in m.entries)


@pytest.fixture(autouse=True)
def empty_z_memo():
    # a test that counts determinants must not see Z values memoised by an earlier one
    invariants._z_memo.cache_clear()


@pytest.fixture
def vhopf():
    # one classical crossing between two components, one virtual crossing implicit
    return parse_diagram("component: O1+\ncomponent: U1+")


@pytest.fixture
def vtref():
    return parse_diagram("component: O1+ O2+ U1+ U2+")


@pytest.fixture
def kink():
    return parse_diagram("component: O1+ U1+")


@pytest.fixture
def trefoil():
    return parse_diagram("component: O1+ U2+ O3+ U1+ O2+ U3+")


@pytest.fixture
def fig8():
    return parse_diagram("component: O1+ U2+ O3- U4- U1+ O2+ U3- O4-")


@pytest.fixture
def classical_hopf():
    return parse_diagram("component: O1+ U2+\ncomponent: U1+ O2+")


@pytest.fixture
def pseudo_hopf():
    # alternating roles the wrong way round: not realizable without virtual
    # crossings, so nothing forces its Z to vanish
    return parse_diagram("component: O1+ O2+\ncomponent: U1+ U2+")


@pytest.fixture
def chain3():
    return parse_diagram("component: O1+ O2+\ncomponent: U1+\ncomponent: U2+")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import sys

    for name, mod in sys.modules.items():
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            lines = getattr(mod, "SUMMARY_LINES", [])
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)
            return
