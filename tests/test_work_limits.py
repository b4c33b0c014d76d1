"""Every work limit pinned at its boundary: with the limit set to the exact
count of work an input needs, the call is answered as without the limit, and
with the limit one lower, it is refused.  Each constant is replaced in the
module that reads it."""

import re

import numpy as np
import pytest

from etale_kit import decomposition, errors, groupoid, hom_search, inverse_semigroup
from etale_kit.decomposition import HomMatrix, enumerate_decomposition_data, validate_hom
from etale_kit.errors import CapExceeded
from etale_kit.families import group_bundle, pair_groupoid
from etale_kit.groupoid import enumerate_automorphisms, invariant_subsets
from etale_kit.inverse_semigroup import enumerate_bisections


def _automorphism_count():
    return len(enumerate_automorphisms(pair_groupoid(3)))


def _triple_count():
    r2 = pair_groupoid(2)
    return sum(1 for _ in enumerate_decomposition_data(r2, r2, 2))


def _identity_is_a_hom():
    r3 = pair_groupoid(3)
    return validate_hom(HomMatrix(r3, r3, np.eye(9))).ok


# (module, constant, a call on fresh inputs whose answer is comparable, the
# exact count of work it needs, the unit of that count)
LIMITS = [
    (hom_search, "CHECK_BUDGET", _automorphism_count, 54, "mapping entries"),
    (groupoid, "SEARCH_BUDGET",
     lambda: invariant_subsets(group_bundle([1] * 5)), 32, "unit sets"),
    (decomposition, "SEARCH_BUDGET", _triple_count, 5, "triples"),
    (decomposition, "PRODUCT_BUDGET", _identity_is_a_hom, 27, "products"),
    (inverse_semigroup, "SEMIGROUP_ELEMENT_CAP",
     lambda: len(enumerate_bisections(pair_groupoid(3))), 34, "bisections"),
    (errors, "DEFAULT_ENUM_CAP", _automorphism_count, 9, "arrows"),
]
# the work budgets; the arrow cap limits input size instead
BUDGETS = LIMITS[:-1]


@pytest.mark.parametrize("module, name, call, count, unit", LIMITS,
                         ids=[f"{name}-{count}" for _, name, _, count, _ in LIMITS])
def test_limit_answers_at_its_count_and_refuses_one_below(monkeypatch, module, name,
                                                          call, count, unit):
    answer = call()
    monkeypatch.setattr(module, name, count)
    assert call() == answer
    monkeypatch.setattr(module, name, count - 1)
    with pytest.raises(CapExceeded):
        call()


@pytest.mark.parametrize("module, name, call, count, unit", BUDGETS,
                         ids=[f"{name}-{unit}" for _, name, _, _, unit in BUDGETS])
def test_every_budget_refuses_with_the_work_it_needs(monkeypatch, module, name,
                                                     call, count, unit):
    # the charges reach the count exactly, so the first one past the budget
    # of count - 1 names the count itself
    monkeypatch.setattr(module, name, count - 1)
    with pytest.raises(CapExceeded) as err:
        call()
    assert re.fullmatch(f".+ needs {count} {unit}, over the budget of {count - 1}",
                        str(err.value))


def test_explicit_arrow_cap_answers_at_the_arrow_count():
    g = pair_groupoid(3)
    assert len(enumerate_automorphisms(g, cap=g.arrow_count)) == 6
    assert len(enumerate_bisections(g, cap=g.arrow_count)) == 34
    with pytest.raises(CapExceeded, match="9 arrows exceeds the cap 8"):
        enumerate_automorphisms(g, cap=g.arrow_count - 1)
    with pytest.raises(CapExceeded, match="9 arrows exceeds the cap 8"):
        enumerate_bisections(g, cap=g.arrow_count - 1)
