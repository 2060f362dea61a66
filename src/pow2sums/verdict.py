"""Shared verdict vocabulary for claim checkers and sweep tallies."""
from __future__ import annotations

import enum
from typing import Optional


class Verdict(enum.Enum):
    """Outcome of evaluating one claim on one input tuple.

    HOLDS              -- hypotheses met, conclusion verified
    HYPOTHESIS_NOT_MET -- input outside the claim's hypotheses; nothing asserted
    PAPER_EXCEPTION    -- the documented exception family of the half-order
                          classification claim; tracked apart from genuine
                          violations so sweeps can assert "no new violations"
    COUNTEREXAMPLE     -- hypotheses met, conclusion false
    """

    HOLDS = "holds"
    HYPOTHESIS_NOT_MET = "hypothesis_not_met"
    PAPER_EXCEPTION = "paper_exception"
    COUNTEREXAMPLE = "counterexample"

    # members are singletons, so hash by identity in C (Enum hashes the name)
    __hash__ = object.__hash__


# One claim evaluation: the verdict, and for COUNTEREXAMPLE and
# PAPER_EXCEPTION the (observed, expected) strings a sweep report records.
Outcome = tuple[Verdict, Optional[tuple[str, str]]]

# The detail-free outcomes: every checker returns these shared objects, so
# a run tells them apart by identity (or in C, with list.count).
HOLDS: Outcome = (Verdict.HOLDS, None)
NOT_MET: Outcome = (Verdict.HYPOTHESIS_NOT_MET, None)

# One claim evaluated on a run of g: how many tuples held, how many were
# outside the hypotheses, and (g, n, w, outcome) for each of the others.
Run = tuple[int, int, list[tuple[int, int, Optional[int], Outcome]]]
