import hashlib
from fractions import Fraction

import pytest

from dendrite.addressing import canonicalize, raw_points, vertex_str
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


@pytest.mark.parametrize("s0", [HALF, Fraction(1, 3), Fraction(2, 5)], ids=str)
def test_uminus_matches_discrete_solve_everywhere(s0):
    g = build_level_graph(3, s0)
    a2, a1, a3 = Fraction(1, 3), Fraction(1), Fraction(-2, 7)
    spec = u_minus(s0, a2, a1, a3)
    sol = solve_dirichlet(g, {Q1: a1, Q2: a2, Q3: a3})
    for v in g.vertices:
        assert eval_closed(spec, v) == sol[v]
    assert energy_closed(spec) == dirichlet_energy(sol)


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


def test_coefficient_case_validation():
    with pytest.raises(ValueError):
        CoefficientCase("yk", 1, k0=0)
    with pytest.raises(ValueError):
        CoefficientCase("xmk", 0, m0=0, k0=0)
    with pytest.raises(ValueError):
        CoefficientCase("nope", 1)


# sha256 of the lines "word:corner value" over every canonical point with
# |word| <= 4 (513 points, in sorted order), recorded from the evaluator
# that projected onto the spine in the resistance metric
RECORDED = {
    ("uminus", "1/2"): "9d966432f2af5c3758f9a1cb29e3ee3dc162858bd2ddd85ca19ff2d31b74dad8",
    ("udown", "1/2"): "0b26d0fe6d5ba24dc7b1f2fd5a8001e65b33b0a7c00def0d4679331fa959bb53",
    ("uplus", "1/2"): "4f7e6012d6247af44a0bf01f13b37177f813ae8ff62c1cb68ea30f96cba2569c",
    ("uminus", "1/3"): "7a8f8e8d8c066fb007edf04ef2962f878931ebff7fdc44f37555e99ed8e6a4b0",
    ("udown", "1/3"): "4cb0d52d325c6a95dd2678dc9b50ab2d1e042dfab8f072f86d4a0705dc49db48",
    ("uplus", "1/3"): "882dee6e6eefd872d5b3fc02b056d353008a9721aeea4c128b9ba353dfa028e4",
    ("uminus", "2/5"): "a1cabb7e484b0893135a6c281250a77d13c86aae3a54fdc07c5b828b779bf56f",
    ("udown", "2/5"): "2d7c9a43d748ab1db7ff1a4f0a74e438640d1ed16ef966a08cf500f84a5ca33c",
    ("uplus", "2/5"): "232fc567ebbfbd3495b3d5a3ca2ff11c92a4c0919fcd9919d523eba5753a5315",
    ("uminus", "3/4"): "cb00b67d8b555f6af5ca3ba73b4156030292eaf45f879705b0255279c25b667f",
    ("udown", "3/4"): "318d1b9c1e4b2267d582cec8c8eab798b75d83f2dc6e05af82ca2a40b287c11a",
    ("uplus", "3/4"): "dd6085566fa050b8dcb2431ce7e825a728a4becf92d293348261f7a75733f4ab",
    ("uup", "1/2"): "5e3651cfecf47a96b3cb156d75af27ae252ecf889c1029d8b6e946e4fa5c3c05",
}


def _recorded_spec(kind: str, s0: Fraction):
    if kind == "uminus":
        return u_minus(s0, Fraction(1, 3), 1, Fraction(-2, 7))
    if kind == "uplus":
        return u_plus(s0, Fraction(3, 4), Fraction(1, 2), Fraction(1, 8))
    return u_down(s0) if kind == "udown" else u_up()


def test_eval_closed_matches_recorded_values():
    points = sorted({canonicalize(w, c) for w, c in raw_points(4)})
    assert len(points) == 513
    for (kind, s0), digest in RECORDED.items():
        spec = _recorded_spec(kind, Fraction(s0))
        lines = "".join(f"{vertex_str(v)} {eval_closed(spec, v)}\n" for v in points)
        assert hashlib.sha256(lines.encode()).hexdigest() == digest, (kind, s0)
