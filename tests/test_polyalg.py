import numpy as np
import pytest

from cmkz.calogero_moser import cm_matrix
from cmkz.master_function import grad_t_q
from cmkz.partitions import Partition
from cmkz.polyalg import require_distinct
from cmkz.tensor_gaudin import gaudin_hamiltonian, generalized_gaudin, singular_basis
from cmkz.wronski import PolyTuple, QuasiExpTuple, psi, psi_q


def test_require_distinct_threshold_is_relative():
    v = require_distinct([0.0, 2e-8, 1.0], 1e-8, "values")
    assert v.dtype == complex and len(v) == 3
    require_distinct([1e3, 1e3 + 2e-5], 1e-8, "values")
    with pytest.raises(ValueError, match="values must be pairwise distinct"):
        require_distinct([1e3, 1e3 + 5e-6], 1e-8, "values")
    require_distinct([], 1.0, "values")
    require_distinct([4.0], 1.0, "values")


def _psi_pair(e):
    # (2, 0) tuple with Wronskian (u - 1)(u - 1 - e)
    lam = Partition((2, 0))
    return psi(lam, PolyTuple(lam, {(1, 1): -1.5 * (2.0 + e), (1, 2): 3.0 * (1.0 + e)}))


def _psi_q_pair(e):
    # for q = (1, 3) the Wronskian is (u + c1)(u + c2) + (c1 - c2)/2, which
    # has a double root at 0 when (c1, c2) = (1, -1)
    return psi_q(QuasiExpTuple([1.0, 3.0], [1.0, -1.0 + e]))


_Z3 = [0.0, 1.0, 2.0j]
_T3 = [np.array([0.3 + 0.4j, -0.6 + 0.2j]), np.array([0.1 - 0.7j])]

# every call site of require_distinct, as a function of the separation e
SITES = {
    "gaudin_hamiltonian": lambda e: gaudin_hamiltonian(
        1, [0.3, 0.3 + e, -1.0], singular_basis(Partition((2, 1)))
    ),
    "generalized_gaudin": lambda e: generalized_gaudin(
        1, [0.3, 0.3 + e, -1.0], [1.0, 2.0, 3.0], 3
    ),
    "cm_matrix": lambda e: cm_matrix([0.3, 0.3 + e], [1.0, 2.0]),
    "psi": _psi_pair,
    "psi_q": _psi_q_pair,
    "QuasiExpTuple": lambda e: QuasiExpTuple([0.5, 0.5 + e], [0.0, 1.0]),
    "grad_t_q": lambda e: grad_t_q([0.5, 0.5 + e, -1.0], _Z3, _T3),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_distinctness_call_sites_reject_near_coincident_input(site):
    SITES[site](0.5)  # well separated: accepted
    with pytest.raises(ValueError, match="pairwise distinct"):
        SITES[site](1e-14)
