"""Shared test plumbing: structure builders and randomized trace drivers."""

from ltss.dynamic_lis import ThresholdStructure

WORKED_STREAM = [8, 2, 1, 6, 5, 4, 3, 6, 5, 4]


def build_structure(values, batch=False):
    """Structure fed values one append at a time, or by one extend."""
    ts = ThresholdStructure()
    if batch:
        ts.extend(values)
    else:
        for v in values:
            ts.append(v)
    return ts


def random_ops(rng, length, vmax, p_extract=0.3):
    """Mixed op stream: an int means append it, 'x' requests an extract
    (runners skip extracts that hit an empty structure)."""
    return ["x" if rng.random() < p_extract else rng.randint(1, vmax)
            for _ in range(length)]


def drop_min(shadow):
    """Shadow-list extract: delete every occurrence of the minimum."""
    m = min(shadow)
    shadow[:] = [x for x in shadow if x != m]
