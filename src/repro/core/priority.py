"""Prioritized assignment — the two-skyline variant (Section 6.2).

With per-function priorities γ the effective coefficients
``α'_i = γ·α_i`` no longer sum to 1, which loosens the plain TA
threshold (``B`` must be initialized to ``max γ``).  The paper's
stronger alternative: also maintain a skyline ``Fsky`` over the
effective coefficient vectors — stable pairs can only join ``Fsky``
with ``Osky`` — and search best pairs *exhaustively* between the two
skylines ("it is faster to exhaustively search ... than to keep the
functions indexed and execute TA", because Fsky is small and sees
frequent updates that would invalidate TA states).

Correctness of restricting to Fsky: if f' dominates f coefficient-wise
then ``f'(o) >= f(o)`` for every non-negative object, and the canonical
function order of :mod:`repro.ordering` breaks score ties toward the
dominator, so the canonical best function for any object is always on
the function skyline.  A negative coordinate reverses that order, so a
catalogue with any negative coordinate scans every alive function
instead.

Since the engine refactor the Fsky scan lives in
:class:`repro.engine.search.FskySearch`; this module is the thin
``sb-two-skylines`` strategy configuration.
"""

from __future__ import annotations

from repro.core.index import ObjectIndex
from repro.core.types import AssignmentResult
from repro.data.instances import FunctionSet
from repro.engine.configs import two_skyline_config
from repro.engine.engine import AssignmentEngine


def sb_two_skyline_assign(
    functions: FunctionSet,
    index: ObjectIndex,
    multi_pair: bool = True,
) -> AssignmentResult:
    """SB with both an object skyline and a function skyline."""
    config = two_skyline_config(multi_pair=multi_pair)
    return AssignmentEngine(config).run(functions, index)
