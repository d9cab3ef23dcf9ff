"""Integer math helpers used throughout the response-time analyses.

All timing quantities in this project are integers (clock cycles), so the
fixed-point iterations of the schedulability analyses terminate exactly
(either at a true fixed point or by exceeding an explicit bound) without any
floating-point tolerance games.
"""

from __future__ import annotations

from typing import Callable

#: Per-recurrence iteration budget of :func:`fixed_point`; the batch
#: engine and its C kernel give a recurrence up at the same count.
MAX_ITERATIONS = 100_000


class FixedPointDiverged(Exception):
    """Raised when a response-time recurrence exceeds its iteration budget.

    This is distinct from exceeding the deadline: callers that treat a missed
    deadline as "unschedulable, stop iterating" never see this exception.
    It exists to guard against pathological recurrences that grow forever
    (e.g. utilisation > 1 on some link) when no upper cut-off was supplied.
    """

    def __init__(self, last_value: int, iterations: int):
        super().__init__(
            f"fixed point did not converge after {iterations} iterations "
            f"(last value {last_value})"
        )
        self.last_value = last_value
        self.iterations = iterations


def ceil_div(numerator: int, denominator: int) -> int:
    """Exact integer ceiling of ``numerator / denominator``.

    Both arguments must be non-negative and ``denominator`` positive; this is
    the ``⌈x/T⌉`` that appears in every interference term of the paper.

    >>> ceil_div(0, 5)
    0
    >>> ceil_div(10, 5)
    2
    >>> ceil_div(11, 5)
    3
    """
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    if numerator < 0:
        raise ValueError(f"numerator must be non-negative, got {numerator}")
    return -(-numerator // denominator)


def fixed_point(
    recurrence: Callable[[int], int],
    start: int,
    *,
    give_up_above: int | None = None,
    max_iterations: int = MAX_ITERATIONS,
) -> tuple[int, bool]:
    """Iterate ``x_{n+1} = recurrence(x_n)`` from ``start`` to a fixed point.

    The recurrence must be monotonically non-decreasing in its argument (all
    response-time recurrences in this project are: they are sums of ceilings
    of the argument).  Iteration stops when:

    * a fixed point is reached -> returns ``(value, True)``;
    * the value exceeds ``give_up_above`` -> returns ``(value, False)``,
      where ``value`` is the first iterate above the cut-off.  Callers use
      the deadline (or a multiple of it) as the cut-off, since any response
      time beyond the deadline means "unschedulable" regardless of the exact
      magnitude;
    * ``max_iterations`` is exhausted -> raises :class:`FixedPointDiverged`.
    """
    value = start
    for _ in range(max_iterations):
        nxt = recurrence(value)
        if nxt < value:
            raise ValueError(
                "recurrence decreased from "
                f"{value} to {nxt}; response-time recurrences must be "
                "monotonic"
            )
        if nxt == value:
            return value, True
        value = nxt
        if give_up_above is not None and value > give_up_above:
            return value, False
    raise FixedPointDiverged(value, max_iterations)
