"""The brute-force axiom reference that tests compare ``verify`` against."""

import numpy as np
import pytest

from quandleforge import components, quandle_table


def brute_force_violations(quandle, pres) -> list[str]:
    """The quandle axioms checked directly on the whole operation table
    T[y][x] = y acted on by x: A1 (x x = x), A2 (every column a bijection),
    A3 ((y x) z = (y z)(x z) on all triples) and the order of every
    element's point symmetry against the labels of its component.  Takes
    O(n^3) time, so it is meant for quandles of a few hundred elements."""
    table = quandle_table(quandle).astype(np.intp)
    n = len(table)
    identity = np.arange(n)
    found = []
    if not np.array_equal(table[identity, identity], identity):
        found.append("A1")
    if not np.array_equal(np.sort(table, axis=0), np.broadcast_to(identity[:, None], (n, n))):
        found.append("A2")
    for z in range(n):
        column = table[:, z]
        if not np.array_equal(column[table], table[np.ix_(column, column)]):
            found.append(f"A3 at element {z}")
            break
    orbits, _ = components(quandle)
    orbit_of = {x: orbit for orbit in orbits for x in orbit}
    for gen in quandle.pres.generators:
        columns = table[:, orbit_of[int(quandle.basepoint[gen.id])]]
        power = np.broadcast_to(identity[:, None], columns.shape)
        for _ in range(pres.label_of(gen)):
            power = np.take_along_axis(columns, power, axis=0)
        if not (power == identity[:, None]).all():
            found.append(f"order in the component of {gen.name}")
    return found


@pytest.fixture(scope="session")
def brute_force():
    return brute_force_violations
