"""The what-if query optimizer substrate (the right-hand box of Figure 1).

This package plays the role SQL Server's extended optimizer plays in the
paper: given a query and a *hypothetical* index configuration it returns an
estimated cost without building anything. The public entry point is
:class:`~repro.optimizer.whatif.WhatIfOptimizer`, which adds the two pieces
of bookkeeping budget-aware tuning relies on — a what-if cache and a counted
budget — plus :mod:`~repro.optimizer.derivation` implementing derived cost
(Section 3.1). The budget allocation matrix of Section 3.2 is never built:
:attr:`~repro.optimizer.whatif.WhatIfOptimizer.call_log` is the layout a
run realises.
"""

from repro.optimizer.cost_model import CostModel, CostModelParams
from repro.optimizer.derivation import CostDerivation
from repro.optimizer.whatif import BudgetMeter, WhatIfOptimizer

__all__ = [
    "BudgetMeter",
    "CostDerivation",
    "CostModel",
    "CostModelParams",
    "WhatIfOptimizer",
]
