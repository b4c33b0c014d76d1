"""Every work limit pinned at its boundary: with the limit set to the exact
count of work an input needs, the call is answered as without the limit, and
with the limit one lower, it is refused.  Each constant is replaced in the
module that reads it."""

import numpy as np
import pytest

from etale_kit import decomposition, errors, groupoid, inverse_semigroup
from etale_kit.decomposition import HomMatrix, validate_hom
from etale_kit.errors import CapExceeded
from etale_kit.families import group_bundle, pair_groupoid
from etale_kit.groupoid import enumerate_automorphisms, invariant_subsets
from etale_kit.inverse_semigroup import enumerate_bisections


def _automorphism_count():
    return len(enumerate_automorphisms(pair_groupoid(3)))


def _identity_is_a_hom():
    r3 = pair_groupoid(3)
    return validate_hom(HomMatrix(r3, r3, np.eye(9))).ok


# (module, constant, a call on fresh inputs whose answer is comparable, the
# exact count of work it needs)
LIMITS = [
    (groupoid, "SEARCH_BUDGET", _automorphism_count, 66),  # candidate images
    (groupoid, "SEARCH_BUDGET",
     lambda: invariant_subsets(group_bundle([1] * 5)), 32),  # unit subsets
    (decomposition, "PRODUCT_BUDGET", _identity_is_a_hom, 27),  # products
    (inverse_semigroup, "SEMIGROUP_ELEMENT_CAP",
     lambda: len(enumerate_bisections(pair_groupoid(3))), 34),  # elements
    (errors, "DEFAULT_ENUM_CAP", _automorphism_count, 9),  # arrows
]


@pytest.mark.parametrize("module, name, call, count", LIMITS,
                         ids=[f"{name}-{count}" for _, name, _, count in LIMITS])
def test_limit_answers_at_its_count_and_refuses_one_below(monkeypatch, module, name,
                                                          call, count):
    answer = call()
    monkeypatch.setattr(module, name, count)
    assert call() == answer
    monkeypatch.setattr(module, name, count - 1)
    with pytest.raises(CapExceeded):
        call()


def test_explicit_arrow_cap_answers_at_the_arrow_count():
    g = pair_groupoid(3)
    assert len(enumerate_automorphisms(g, cap=g.arrow_count)) == 6
    assert len(enumerate_bisections(g, cap=g.arrow_count)) == 34
    with pytest.raises(CapExceeded, match="9 arrows exceeds the cap 8"):
        enumerate_automorphisms(g, cap=g.arrow_count - 1)
    with pytest.raises(CapExceeded, match="9 arrows exceeds the cap 8"):
        enumerate_bisections(g, cap=g.arrow_count - 1)
