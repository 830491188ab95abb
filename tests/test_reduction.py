"""Reduction along a holomorphic coordinate, homogenization, and the
equivalence of verification before and after."""

import random
from fractions import Fraction

import pytest

from eigenforge.frames import VariableFrame
from eigenforge.poly import Poly
from eigenforge.scalars import GaussRational
from eigenforge.conformality import verify_flat_family
from eigenforge.reduction import homogenize, reduce_along, reduction_equivalence_check


def gr(a, b=0):
    return GaussRational(Fraction(a), Fraction(b))


def inflated_cubic(gamma):
    "z^2 w + 2 gamma z u t - gamma^2 u^2 conj(w) on C^3 + R."
    frame = VariableFrame(("z", "u", "w"), ("t",))
    z = Poly.variable(frame, "z")
    u = Poly.variable(frame, "u")
    w = Poly.variable(frame, "w")
    t = Poly.variable(frame, "t")
    return z * z * w + 2 * gamma * z * u * t - gamma * gamma * u * u * w.conjugate()


def reduced_cubic(gamma):
    "z^2 w + 2 gamma z t - gamma^2 conj(w) on C^2 + R."
    frame = VariableFrame(("z", "w"), ("t",))
    z = Poly.variable(frame, "z")
    w = Poly.variable(frame, "w")
    t = Poly.variable(frame, "t")
    return z * z * w + 2 * gamma * z * t - gamma * gamma * w.conjugate()


def test_reduce_known_cubic():
    for gamma in (gr(1), gr(0, 1), gr(1, 2)):
        F = inflated_cubic(gamma)
        assert reduce_along(F, "u") == reduced_cubic(gamma)


def test_reduce_power_to_one():
    frame = VariableFrame(("z",), ())
    z = Poly.variable(frame, "z")
    for d in (1, 2, 5):
        r = reduce_along(z ** d, "z")
        assert r.frame.m == 0
        assert r == 1


def test_reduce_preconditions():
    frame = VariableFrame(("z", "u"), ())
    z = Poly.variable(frame, "z")
    u = Poly.variable(frame, "u")
    with pytest.raises(ValueError):
        reduce_along(z * z.conjugate(), "z")
    with pytest.raises(ValueError):
        reduce_along(z + z * u, "u")  # not homogeneous
    with pytest.raises(ValueError):
        reduce_along(z * u, "q")  # no such coordinate


def test_homogenize_single_part():
    frame = VariableFrame(("w",), ("t",))
    w = Poly.variable(frame, "w")
    t = Poly.variable(frame, "t")
    out = homogenize(w + t, 2, "s")
    s = Poly.variable(out.frame, "s")
    wl = Poly.variable(out.frame, "w")
    tl = Poly.variable(out.frame, "t")
    assert out == s * wl + s * tl
    assert out.frame.complex_names == ("s", "w")


def test_homogenize_zero_and_errors():
    frame = VariableFrame(("w",), ())
    w = Poly.variable(frame, "w")
    assert homogenize(Poly.zero(frame), 3, "s") == 0
    with pytest.raises(ValueError):
        homogenize(w * w, 1, "s")
    with pytest.raises(ValueError):
        homogenize(w, 2, "w")  # name already present


def test_round_trip_identities():
    # reduce after homogenize is the identity for degree <= d
    rng = random.Random(61)
    frame = VariableFrame(("w", "v"), ("t",))
    names = ["w", "v"]
    for _ in range(40):
        p = Poly.zero(frame)
        for _ in range(rng.randint(1, 4)):
            term = Poly.constant(frame, gr(rng.randint(-3, 3), rng.randint(-2, 2)))
            for _ in range(rng.randint(0, 2)):
                name = rng.choice(names + ["t"])
                if name == "t":
                    term = term * Poly.variable(frame, "t")
                elif rng.random() < 0.3:
                    term = term * Poly.conj_variable(frame, name)
                else:
                    term = term * Poly.variable(frame, name)
            p = p + term
        d = max(p.degree(), 0) + rng.randint(0, 2)
        assert reduce_along(homogenize(p, d, "s"), "s") == p


def test_round_trip_on_homogeneous_input():
    # homogenize after reduce rebuilds the original when the coordinate
    # goes back to its old position
    for gamma in (gr(1), gr(2, -1)):
        F = inflated_cubic(gamma)
        r = reduce_along(F, "u")
        assert homogenize(r, F.degree(), "u", index=1) == F


def test_equivalence_check_known_family():
    for gamma in (gr(0), gr(1), gr(0, 1), gr(1, 2)):
        before, after = reduction_equivalence_check([inflated_cubic(gamma)], "u")
        assert before and after


def test_equivalence_check_rejects_bad_input():
    frame = VariableFrame(("z", "v"), ())
    z = Poly.variable(frame, "z")
    v = Poly.variable(frame, "v")
    with pytest.raises(ValueError):
        reduction_equivalence_check([z * v, z.conjugate() * v], "z")
    with pytest.raises(ValueError):
        reduction_equivalence_check([z, z * v], "z")  # mixed degrees
    with pytest.raises(ValueError, match="no complex coordinate 'q' to reduce along"):
        reduction_equivalence_check([z * v, z.conjugate() * v], "q")  # the name comes first


def test_equivalence_check_zero_family():
    frame = VariableFrame(("z",), ())
    assert reduction_equivalence_check([Poly.zero(frame)], "z") == (True, True)


def rand_holomorphic_in(rng, frame, coord, degree, terms):
    "Random homogeneous polynomial with no conj(coord)."
    out = Poly.zero(frame)
    choices = []
    for name in frame.complex_names:
        choices.append(Poly.variable(frame, name))
        if name != coord:
            choices.append(Poly.conj_variable(frame, name))
    for name in frame.real_names:
        choices.append(Poly.variable(frame, name))
    for _ in range(terms):
        term = Poly.constant(frame, gr(rng.randint(-2, 2), rng.randint(-2, 2)))
        for _ in range(degree):
            term = term * rng.choice(choices)
        out = out + term
    return out


def test_equivalence_on_seeded_instances():
    # mixed bag: random families (usually not eigen) plus scaled copies
    # of the known cubic (eigen); the verdict agreement is what matters
    rng = random.Random(67)
    frame = VariableFrame(("z", "u", "w"), ("t",))
    agree_true = agree_false = 0
    for case in range(60):
        if case % 3 == 0:
            gamma = gr(rng.randint(-2, 2), rng.randint(-2, 2))
            fs = [inflated_cubic(gamma)]
        else:
            degree = rng.randint(1, 3)
            fs = [rand_holomorphic_in(rng, frame, "u", degree, rng.randint(1, 3))
                  for _ in range(rng.randint(1, 2))]
            fs = [f for f in fs if f != 0] or [Poly.zero(frame)]
            if len({f.degree() for f in fs if f != 0}) > 1:
                continue
        before, after = reduction_equivalence_check(fs, "u")
        assert before == after
        if before:
            agree_true += 1
        else:
            agree_false += 1
    assert agree_true > 5 and agree_false > 5
