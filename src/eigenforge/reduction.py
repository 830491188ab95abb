"""Reduction along a holomorphic coordinate and its inverse,
homogenization.

For a homogeneous polynomial holomorphic in one complex coordinate,
setting that coordinate to 1 keeps all eigenfamily information: a
family is a harmonic-morphism family exactly when its reduction is.
Reduction of a larger complex axis is iterated one coordinate at a
time.
"""

from __future__ import annotations

from .poly import Poly, rename_onto, same_name_images
from .conformality import verify_flat_family


def reduce_along(f: Poly, coord: str) -> Poly:
    """Substitute z_coord = 1; the output lives on the frame with coord
    removed.  f must be homogeneous and holomorphic in coord."""
    frame = f.frame
    if coord not in frame.complex_names:
        raise ValueError(f"no complex coordinate {coord!r} to reduce along")
    if not f.is_homogeneous():
        raise ValueError("reduction needs a homogeneous polynomial")
    if not f.is_holomorphic_in(coord):
        raise ValueError(f"conj({coord}) appears; reduction needs holomorphy in {coord!r}")
    target = frame.drop_complex(coord)
    images = same_name_images(frame, target, skip=coord)
    images[frame.z_slot(coord)] = Poly.constant(target, 1)
    return f.substitute(target, images)


def homogenize(p: Poly, d: int, new_coord: str, index: int = 0) -> Poly:
    """Multiply each degree-k part by z_new^(d-k) on the frame with
    new_coord inserted among the complex names at the given position.
    reduce_along(homogenize(p, d, c), c) = p whenever deg p <= d."""
    if p and p.degree() > d:
        raise ValueError(f"degree {p.degree()} exceeds target degree {d}")
    target = p.frame.insert_complex(new_coord, index)
    z_new = Poly.variable(target, new_coord)
    out = Poly.zero(target)
    for k, part in p.homogeneous_parts().items():
        lifted = rename_onto(part, target)
        out = out + lifted * z_new ** (d - k)
    return out


def reduce_family(fs, coord: str):
    """(original verdict, reduced verdict, reduced members) for a family
    homogeneous of one degree and holomorphic in coord.  The theorem says
    the two booleans always agree."""
    fs = list(fs)
    for f in fs:  # first: is_holomorphic_in raises KeyError on a name not in the frame
        if coord not in f.frame.complex_names:
            raise ValueError(f"no complex coordinate {coord!r} to reduce along")
    degrees = {f.degree() for f in fs if f}
    if len(degrees) > 1:
        raise ValueError("family members must share one degree")
    for f in fs:
        if not f.is_homogeneous():
            raise ValueError("reduction needs homogeneous polynomials")
        if not f.is_holomorphic_in(coord):
            raise ValueError(f"conj({coord}) appears; reduction needs holomorphy in {coord!r}")
    before = verify_flat_family(fs).verdict
    reduced = [reduce_along(f, coord) for f in fs]
    return before, verify_flat_family(reduced).verdict, reduced


def reduction_equivalence_check(fs, coord: str):
    "The two verdicts of reduce_family."
    return reduce_family(fs, coord)[:2]
