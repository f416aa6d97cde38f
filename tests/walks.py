"""The one-row orbit walk that the walker tests compare batches with."""

from iterfield.fields import walk_rows


def walk_alone(field, x, k_max, jacobians=False):
    """The one-row case of ``walk_rows``: yields F^j(x), or with
    ``jacobians`` the pair (step, prefix), for j = 1..k_max, and raises
    the error the walk records for x at the step where x leaves it."""
    dropped = {}
    for _, *stacks in walk_rows(field, [x], k_max, jacobians, dropped=dropped):
        if dropped:
            raise dropped[0]
        yield tuple(s[0] for s in stacks) if jacobians else stacks[0][0]
