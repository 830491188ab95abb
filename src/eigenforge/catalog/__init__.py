"""Built-in catalog of worked families, shipped as .efam files next to
this module.

Each file carries expectation metadata (expect statements); run_entry
re-derives every expected value with the library and reports one
outcome per expectation.  The directory can be overridden with the
EIGENFORGE_CATALOG environment variable.
"""

from __future__ import annotations

import functools
import os
from fractions import Fraction
from typing import NamedTuple

from ..scalars import GaussRational, scalar
from ..conformality import sphere_data, verify_flat_family
from ..holomorphy import gradient_span, maximal_axis, span_complex_type
from ..parser import FamilySource, load_family


def catalog_dir() -> str:
    override = os.environ.get("EIGENFORGE_CATALOG")
    if override:
        return override
    return os.path.dirname(__file__)


def list_entries():
    return sorted(fn[:-5] for fn in os.listdir(catalog_dir()) if fn.endswith(".efam"))


def entry_path(name: str) -> str:
    directory = catalog_dir()
    path = os.path.join(directory, name + ".efam")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no catalog entry {name!r} in {directory}")
    return path


def load_entry(name: str) -> FamilySource:
    return load_family(entry_path(name))


class ExpectationOutcome(NamedTuple):
    key: str
    expected: object
    actual: object
    ok: bool

    def __str__(self):
        word = "pass" if self.ok else "FAIL"
        return f"{word}  {self.key}: expected {self.expected}, got {self.actual}"


def _as_integer(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, GaussRational) or value.im != 0:
        raise ValueError(f"expected a rational number, got {value!r}")
    return value.re


# Each check takes the family, the expected value and zero-argument callables
# returning its flat verification report and its gradient span, so that an
# entry computes each at most once however many keys read them.


def _check_eigenfamily(fs, expected, flat, span):
    got = flat().verdict
    return got, got is expected


def _check_uniform_type(fs, expected, flat, span):
    got, _ = span_complex_type(span())
    return got, got is expected


def _check_degree(fs, expected, flat, span):
    degs = sorted({f.degree() for f in fs if f})
    if len(degs) != 1:
        return degs, False
    return degs[0], scalar(degs[0]) == expected


def _check_sphere_lambda(fs, expected, flat, span):
    data = sphere_data(fs)
    return data.lam, flat().verdict and data.lam == expected


def _check_sphere_mu(fs, expected, flat, span):
    data = sphere_data(fs)
    return data.mu, flat().verdict and data.mu == expected


def _check_axis_floor(fs, expected, flat, span):
    dim = maximal_axis(fs, W=span()).certified_dim
    return dim, Fraction(dim) >= _as_integer(expected)


CHECKS = {
    "eigenfamily": _check_eigenfamily,
    "uniformly_complex_type": _check_uniform_type,
    "degree": _check_degree,
    "sphere_lambda": _check_sphere_lambda,
    "sphere_mu": _check_sphere_mu,
    "certified_axis_at_least": _check_axis_floor,
}


def run_entry(source: FamilySource):
    "Evaluate every expectation of a parsed family, in file order."
    fs = source.polys
    flat = functools.cache(lambda: verify_flat_family(fs))
    span = functools.cache(lambda: gradient_span(fs))
    out = []
    for key, expected in source.expects.items():
        check = CHECKS.get(key)
        if check is None:
            out.append(ExpectationOutcome(key, expected, "unknown expectation", False))
            continue
        try:
            actual, ok = check(fs, expected, flat, span)
        except (ValueError, AssertionError) as exc:
            actual, ok = f"error: {exc}", False
        out.append(ExpectationOutcome(key, expected, actual, ok))
    return out


def run_all():
    "name -> outcomes for every entry in the catalog directory, sorted by name."
    return {name: run_entry(load_entry(name)) for name in list_entries()}
