from fractions import Fraction

import pytest

from dendrite.addressing import canonicalize
from dendrite.closed_forms import (
    CoefficientCase,
    HarmonicSpec,
    energy_closed,
    eval_closed,
    psi_coefficients,
    u_down,
    u_minus,
    u_plus,
    u_up,
)
from dendrite.dirichlet import dirichlet_energy, solve_dirichlet
from dendrite.network import build_level_graph

HALF = Fraction(1, 2)
Q0, Q1, Q2, Q3 = ("2", 1), ("", 1), ("", 2), ("", 3)


def test_uminus_examples():
    spec = u_minus(HALF, 0, 1, 0)
    assert eval_closed(spec, Q0) == HALF
    assert eval_closed(spec, Q1) == 1
    assert eval_closed(spec, Q2) == 0
    # off-spine vertices copy their spine projection
    assert eval_closed(spec, canonicalize("0", 3)) == 1


def test_udown_examples():
    spec = u_down()
    assert eval_closed(spec, canonicalize("23", 1)) == Fraction(1, 16)
    assert eval_closed(spec, Q0) == Fraction(1, 4)
    assert eval_closed(spec, Q2) == 0 and eval_closed(spec, Q3) == 0
    assert eval_closed(spec, Q1) == 1


def test_uup_examples():
    spec = u_up()
    assert eval_closed(spec, canonicalize("002", 1)) == Fraction(1, 64)
    assert eval_closed(spec, Q2) == 1
    assert eval_closed(spec, Q1) == 0
    assert eval_closed(spec, canonicalize("1", 2)) == 0


def test_uup_requires_half():
    with pytest.raises(ValueError):
        HarmonicSpec("uup", (), Fraction(1, 3))


def test_energies():
    assert energy_closed(u_down()) == 3
    assert energy_closed(u_down(Fraction(1, 3))) == 4
    assert energy_closed(u_up()) == Fraction(3, 2)
    assert energy_closed(u_plus(HALF, 1, 1, 0)) == 2
    assert energy_closed(u_minus(HALF, 2, 5, -1)) == 9 + 36


def test_uminus_matches_discrete_solve_everywhere():
    g = build_level_graph(3)
    a2, a1, a3 = Fraction(1, 3), Fraction(1), Fraction(-2, 7)
    spec = u_minus(HALF, a2, a1, a3)
    sol = solve_dirichlet(g, {Q1: a1, Q2: a2, Q3: a3})
    for v in g.vertices:
        assert eval_closed(spec, v) == sol[v]
    assert energy_closed(spec) == dirichlet_energy(g, sol)


def test_uplus_junction_consistency():
    # the four piecewise definitions agree on the shared cell corners
    spec = u_plus(HALF, Fraction(3, 4), Fraction(1, 2), Fraction(1, 8))
    a, b, c = spec.params
    assert eval_closed(spec, Q0) == HALF * a + HALF * b
    assert eval_closed(spec, canonicalize("3", 1)) == c
    assert eval_closed(spec, Q2) == a
    assert eval_closed(spec, Q1) == b
    assert eval_closed(spec, Q3) == 0


def test_udown_self_similarity():
    spec = u_down()
    for raw in (("02", 1), ("223", 1), ("032", 1)):
        v = canonicalize(*raw)
        child = canonicalize("2" + raw[0], raw[1])
        assert eval_closed(spec, child) == eval_closed(spec, v) / 4


def test_coefficient_examples():
    t = psi_coefficients(CoefficientCase("xmk", 1, m0=1, k0=0))
    assert t.spine[0] == Fraction(20, 41)
    assert t.spine[-1] == Fraction(8, 41)
    assert t.branch[0] == 1
    ty = psi_coefficients(CoefficientCase("yk", 1, k0=1))
    assert ty.spine[0] == Fraction(2, 5)
    assert ty.spine[1] == 1


def test_coefficient_normalisation():
    for n in (1, 2):
        for m0 in (0, 2):
            for k0 in (0, 1, 3):
                t = psi_coefficients(CoefficientCase("xmk", n, m0=m0, k0=k0))
                assert t.branch[k0] == 1
                assert all(0 < val <= 1 for val in t.spine.values())
                assert all(0 < val <= 1 for val in t.branch.values())
        for k0 in (1, 2):
            ty = psi_coefficients(CoefficientCase("yk", n, k0=k0))
            assert ty.spine[k0] == 1
            assert all(0 < val <= 1 for val in ty.spine.values())


def test_coefficient_recurrence_exact():
    t = psi_coefficients(CoefficientCase("xmk", 2, m0=3, k0=2))
    seq = [t.spine[m] for m in range(-1, 4)] + [t.branch[k] for k in (1, 2)]
    for i in range(1, len(seq) - 1):
        assert 4 * seq[i + 1] - 9 * seq[i] + 2 * seq[i - 1] == 0


def test_coefficient_quarter_values():
    t = psi_coefficients(CoefficientCase("xmk", 1, m0=2, k0=1))
    for m in range(-1, 2):
        assert t.spine_quarter[m] == t.spine[m] / 4
    assert t.branch_quarter[1] == t.branch[1] / 4


def test_coefficient_case_validation():
    with pytest.raises(ValueError):
        CoefficientCase("yk", 1, k0=0)
    with pytest.raises(ValueError):
        CoefficientCase("xmk", 0, m0=0, k0=0)
    with pytest.raises(ValueError):
        CoefficientCase("nope", 1)
