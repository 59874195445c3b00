"""Five-valued D-calculus for gate-level path sensitization (section 6.6).

Roth's D-calculus represents the fault-free ("good") and faulty circuit
in one simulation: every net carries one of five values —

========  =========  ==========
symbol    good       faulty
========  =========  ==========
``ZERO``  0          0
``ONE``   1          1
``D``     1          0
``DBAR``  0          1
``X``     unknown    unknown
========  =========  ==========

``D`` on a net means the fault-effect is visible there (the good and the
faulty machine disagree); propagating a ``D``/``DBAR`` to an observed
net is what "sensitizing a path through the faulty gate" means for the
paper's single-output amplitude faults.

Rather than hand-writing one truth table per cell, :func:`dcalc_eval`
derives the D-calculus behaviour of *any* library cell from the same
``logic_eval`` metadata the 3-valued simulator uses: the good component
is the cell evaluated over the good parts of its inputs, the faulty
component over the faulty parts, each with exact X-propagation.  The
tests pin the resulting truth tables per cell type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from .logic import Value, _x_safe


@dataclass(frozen=True)
class DValue:
    """One five-valued (good, faulty) pair.

    Only the five canonical values exist; use the module constants
    (``ZERO``, ``ONE``, ``D``, ``DBAR``, ``X``) or :func:`from_pair`
    rather than constructing instances.
    """

    good: Value
    faulty: Value
    symbol: str

    def __repr__(self) -> str:
        return self.symbol

    @property
    def is_known(self) -> bool:
        """True when both machine copies have a binary value."""
        return self.good is not None and self.faulty is not None

    @property
    def is_error(self) -> bool:
        """True for ``D`` / ``DBAR``: the fault effect is visible."""
        return self.is_known and self.good != self.faulty


ZERO = DValue(False, False, "0")
ONE = DValue(True, True, "1")
D = DValue(True, False, "D")
DBAR = DValue(False, True, "D'")
X = DValue(None, None, "X")

#: All five values, for truth-table sweeps.
FIVE_VALUES: Tuple[DValue, ...] = (ZERO, ONE, D, DBAR, X)


def from_pair(good: Value, faulty: Value) -> DValue:
    """The canonical :class:`DValue` for a (good, faulty) pair.

    Partial knowledge (one side binary, the other X) collapses to ``X``:
    the classic calculus keeps only the five canonical values, which is
    conservative — a pessimistic engine never reports a false detection.
    """
    if good is None or faulty is None:
        return X
    if good:
        return D if not faulty else ONE
    return DBAR if faulty else ZERO


def from_logic(value: Value) -> DValue:
    """Lift a fault-free 3-valued value into the calculus."""
    if value is None:
        return X
    return ONE if value else ZERO


def fault_value(stuck_at: bool, good: Value) -> DValue:
    """The value of the fault site itself: good response vs stuck value.

    A stuck-at-``v`` net is only *activated* (carries ``D``/``DBAR``)
    when the good machine drives it to ``not v``.
    """
    return from_pair(good, stuck_at)


def dcalc_eval(eval_fn: Callable[..., Tuple[bool, ...]],
               inputs: Sequence[DValue]) -> DValue:
    """Evaluate a boolean cell function over five-valued inputs.

    The good and faulty machines are evaluated independently with exact
    X-propagation (every completion of the unknown inputs is tried, as
    in the 3-valued simulator), then recombined into one of the five
    canonical values.
    """
    good = _x_safe(eval_fn, [v.good for v in inputs])
    faulty = _x_safe(eval_fn, [v.faulty for v in inputs])
    return from_pair(good, faulty)
