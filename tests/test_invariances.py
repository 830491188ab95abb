"""Exact relations that the definitions imply, checked with no reference
implementation: kappa and the Laplacian are bilinear, so an invertible
recombination of the members changes no verdict; unused real coordinates
add only to the real kernel K; and an exact rotation moves the certified
axis with it.  Every relation is an equality of exact values or canonical
bases, on catalog entries and seeded degree-2 pairs (m <= 14)."""

import random

import pytest

from eigenforge.catalog import entry_path, list_entries
from eigenforge.conformality import verify_flat_family
from eigenforge.degree2 import construct_eigenpair, decompose_eigenpair, find_axis_deg2
from eigenforge.frames import VariableFrame
from eigenforge.holomorphy import (apply_real_isometry, gradient_span, is_uniformly_complex_type,
                                  maximal_axis)
from eigenforge.linalg import ComplexSubspace, RealSubspace
from eigenforge.parser import load_family
from eigenforge.poly import Poly, rename_onto
from eigenforge.scalars import GaussRational

from test_degree2 import rand_cayley, rand_data


def catalog_members(name):
    return load_family(entry_path(name)).polys


def verdicts(fs):
    "The flat verdict with its data, the gradient span, the certified axis, the complex type."
    report, W = verify_flat_family(fs), gradient_span(fs)
    return ((report.verdict, report.data), W, maximal_axis(fs, W=W).certified_axis,
            is_uniformly_complex_type(fs)[0])


@pytest.mark.parametrize("name", list_entries())
def test_a_unitriangular_recombination_keeps_every_verdict(name):
    # g_i = f_i + sum over j > i of c_ij f_j, with Gaussian-integer c_ij
    rng = random.Random(name)
    fs = catalog_members(name)
    zero = Poly.zero(fs[0].frame)
    gs = [f + sum((GaussRational(rng.randint(-2, 2), rng.randint(-2, 2)) * g
                   for g in fs[i + 1:]), zero) for i, f in enumerate(fs)]
    assert verdicts(gs) == verdicts(fs)


def padded_pairs():
    "Seeded full eigenpairs (n <= 3), each with 1-3 unused real coordinates."
    rng = random.Random(14)
    for pads in (1, 2, 3, 1, 2, 3):
        F1, F2 = construct_eigenpair(*rand_data(rng, n_max=3))
        frame = F1.frame
        target = VariableFrame(frame.complex_names,
                               frame.real_names + tuple(f"p{j}" for j in range(pads)))
        yield (F1, F2), (rename_onto(F1, target), rename_onto(F2, target)), pads


def test_unused_real_coordinates_add_to_the_real_kernel_and_the_axis_only():
    for fs, padded, pads in padded_pairs():
        W, Wp = gradient_span(fs), gradient_span(padded)
        assert Wp.real_annihilator().dim == W.real_annihilator().dim + pads
        assert (maximal_axis(padded, W=Wp).certified_dim
                == maximal_axis(fs, W=W).certified_dim + pads)
        (axis, degenerate), (axis_p, degenerate_p) = find_axis_deg2(fs), find_axis_deg2(padded)
        assert degenerate_p == degenerate
        assert axis_p == RealSubspace(axis_p.ambient, [b + (0,) * pads for b in axis.basis])
        decompose_eigenpair(*fs)
        with pytest.raises(ValueError, match="^not full$"):
            decompose_eigenpair(*padded)


def test_an_exact_rotation_keeps_the_verdicts_and_moves_the_certified_axis():
    # x' = Q x pulls the gradients, and so W and the axis, forward by Q: rows C to C Q^T
    rng = random.Random(15)
    families = [catalog_members(name) for name in list_entries()]
    families += [list(construct_eigenpair(*rand_data(rng, n_max=3))) for _ in range(6)]
    for fs in families:
        frame = fs[0].frame
        Q = rand_cayley(rng, frame.m)
        data, W, axis, complex_type = verdicts(fs)
        data_q, W_q, axis_q, complex_type_q = verdicts([apply_real_isometry(f, Q, frame)
                                                        for f in fs])
        assert (data_q, complex_type_q) == (data, complex_type)
        assert W_q == ComplexSubspace(frame.m, (W.basis_matrix * Q.transpose()).rows)
        assert axis_q == RealSubspace(frame.m, (axis.basis_matrix * Q.transpose()).rows)
