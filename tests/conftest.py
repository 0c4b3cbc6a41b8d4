import pytest

from natforms.geometry import connection_from_entries, flat_connection, reference_connection
from natforms.poly import parse


@pytest.fixture(scope="session")
def ref_conn():
    return reference_connection()


@pytest.fixture(scope="session")
def flat_conn():
    return flat_connection(4)


def make_connection(entries, n=4):
    return connection_from_entries(n, {key: parse(text, n) for key, text in entries.items()})


@pytest.fixture(scope="session")
def crooked_conn():
    """A fixed torsionful connection unrelated to the bundled reference one."""
    return make_connection(
        {
            (2, 1, 3): "x1*x2",
            (1, 4, 4): "x3^2 - 2*x1",
            (4, 2, 2): "3*x4",
            (3, 1, 2): "x2*x3",
            (1, 2, 1): "-x4 + 1/2*x2",
        }
    )


@pytest.fixture(scope="session")
def ref_family(ref_conn):
    from natforms.verify import Derived

    return Derived(ref_conn).family


@pytest.fixture(scope="session")
def ref_differentials(ref_conn, ref_family):
    from natforms.geometry import ext_cov_deriv_endo

    return [ext_cov_deriv_endo(ref_conn, entry.form) for entry in ref_family.entries]


@pytest.fixture
def wrong_null_vector(monkeypatch):
    """Make every back-substitution in exactla return a vector that is off by
    one at its last pivot column, so no certificate built on it can hold."""
    from natforms import exactla

    right = exactla._null_vector

    def wrong(rows, pivot_cols, free, cols):
        vec = right(rows, pivot_cols, free, cols)
        vec[pivot_cols[-1]] += 1
        return vec

    monkeypatch.setattr(exactla, "_null_vector", wrong)


@pytest.fixture(scope="session")
def symmetric_conn():
    """A fixed symmetric (torsion-free) connection."""
    return make_connection(
        {
            (1, 1, 2): "x3",
            (1, 2, 1): "x3",
            (3, 2, 4): "x1*x4",
            (3, 4, 2): "x1*x4",
            (2, 3, 3): "x2^2",
        }
    )
