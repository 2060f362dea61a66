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
