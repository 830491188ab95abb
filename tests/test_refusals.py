"""Refusals that no other test raises, each from its input to its exact message.

A row is a call on a scratch directory and what it gives: the message of the
exception it must raise, or the text it returns when the refusal is reported
rather than raised (a catalog outcome, a report warning, the stderr of the
command line).
"""

import json
import random

import pytest

from eigenforge import catalog
from eigenforge.conformality import FLAT_DATA, sphere_data, verify_general_family
from eigenforge.degree2 import PolynomialData, SubspaceType, data_to_json_dict
from eigenforge.frames import VariableFrame
from eigenforge.linalg import Matrix
from eigenforge.parser import parse_family, parse_poly
from eigenforge.poly import Poly
from eigenforge.scalars import scalar

from test_cli import run
from test_degree2 import rand_data

C2 = VariableFrame(("z1", "z2"), ())
C2T = VariableFrame(("z1", "z2"), ("t",))


def raised(exc_type, fn, *args):
    "A call that must raise exc_type from fn(*args), giving its message."
    def call(tmp_path):
        with pytest.raises(exc_type) as info:
            fn(*args)
        return str(info.value)
    return call


def deg2_construct(change):
    """A call of `deg2 construct` on seeded k = 2 data after change(data),
    giving its exit code, stdout and stderr."""
    def call(tmp_path):
        raw = data_to_json_dict(*rand_data(random.Random(5), k=2))
        change(raw)
        path = tmp_path / "data.json"
        path.write_text(json.dumps(raw))
        return run(["deg2", "construct", path])
    return call


def outcome(text):
    "A call of catalog.run_entry on a family file, giving its one outcome as printed."
    def call(tmp_path):
        [got] = catalog.run_entry(parse_family(text))
        return str(got)
    return call


def polynomial_data(frame1, frame2, n):
    "PolynomialData.validate of z1 z2 on two frames, against the type (n, 0, 0)."
    pd = PolynomialData(parse_poly("z1*z2", frame1), parse_poly("z1*z2", frame2),
                        Matrix.zero(n, 0))
    return pd.validate(SubspaceType(n, 0, 0))


CASES = [
    pytest.param(deg2_construct(lambda d: d["poly"].update(P1="z1")),
                 (2, "", "error: P1, P2 must be homogeneous of degree 2\n"),
                 id="deg2-not-quadratic"),
    pytest.param(deg2_construct(lambda d: d["twist"].update(
                     Y={"rows": 1, "cols": 1, "entries": [["0", "0"]]})),
                 (2, "", "error: Y must be 2x2\n"), id="deg2-Y-shape"),
    pytest.param(deg2_construct(lambda d: d["poly"]["A"].update(rows=d["poly"]["A"]["rows"] + 1)),
                 (2, "", "error: poly.A: matrix entry count mismatch\n"),
                 id="deg2-entry-count"),
    pytest.param(raised(ValueError, polynomial_data, C2, VariableFrame(("z1", "z2", "z3"), ()), 2),
                 "P1 and P2 must share a frame", id="deg2-frames-differ"),
    pytest.param(raised(ValueError, polynomial_data, C2T, C2T, 2),
                 "P1, P2 must live on C^2", id="deg2-real-slot"),
    pytest.param(raised(ValueError, polynomial_data, C2, C2, 3),
                 "P1, P2 must live on C^3", id="deg2-wrong-n"),
    pytest.param(raised(ValueError, sphere_data, [Poly.constant(C2, scalar(3))]),
                 "constant families have no sphere data", id="sphere-constant"),
    pytest.param(lambda tmp_path: verify_general_family([], FLAT_DATA).to_json_dict()["warning"],
                 "empty family verifies vacuously", id="empty-family-warning"),
    pytest.param(outcome("family f\nframe complex z\nF = z^2\n"
                         "expect certified_axis_at_least = 1 + i\n"),
                 "FAIL  certified_axis_at_least: expected 1+i, got error: expected a rational "
                 "number, got GaussRational(Fraction(1, 1), Fraction(1, 1))",
                 id="catalog-axis-not-rational"),
    pytest.param(outcome("family f\nframe complex z\nF = z^2\nG = z\nexpect degree = 2\n"),
                 "FAIL  degree: expected 2, got [1, 2]", id="catalog-mixed-degrees"),
    pytest.param(raised(ValueError, Matrix, []),
                 "empty matrix needs an explicit column count", id="matrix-empty"),
    pytest.param(raised(TypeError, Matrix.identity(2).scale, "2"),
                 "cannot scale a Matrix by str", id="matrix-scale"),
    pytest.param(raised(ValueError, Matrix.identity(2).__mul__, Matrix.identity(3)),
                 "shape mismatch 2x2 * 3x3", id="matrix-product-shape"),
    pytest.param(raised(ZeroDivisionError, scalar(1).__truediv__, scalar(0)),
                 "division by zero in Q(i)", id="scalar-division-by-zero"),
    pytest.param(raised(ValueError, scalar(2).__pow__, -1),
                 "exponent must be a nonnegative integer", id="scalar-negative-power"),
]


@pytest.mark.parametrize("call, expected", CASES)
def test_refusal_messages(call, expected, tmp_path):
    assert call(tmp_path) == expected
