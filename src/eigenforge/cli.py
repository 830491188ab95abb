"""Command line front end.

Subcommands:
  verify     check the eigenfamily identities of a family file
  analyze    complex-type verdict and axis-of-holomorphy report
  reduce     substitute 1 for a holomorphic coordinate and re-verify
  deg2       construct a degree-2 eigenpair from data, or decompose one
  construct  pair | defect | glue | augment | power
  catalog    list | run the built-in family catalog

Exit codes: 0 success (and verdict true where there is one), 1 a
verification or decomposition came back negative, 2 usage, parse or
input errors (and a degree over poly.MAX_DEGREE, or a product or a
power family over poly.PRODUCT_LIMIT term products), 3 an internal
check on a computed result failed, such as decomposed degree-2 data
that its validators reject (a bug, reported as "internal check
failed: ..." with no traceback).  Exact values print as rationals
p/q + r/s*i; floating point numbers appear only in sections labelled
numeric.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .scalars import GaussRational
from .frames import VariableFrame
from .parser import (FamilySource, ParseError, format_family, format_poly,
                     format_scalar, load_family, parse_poly)
from .conformality import (FLAT_DATA, EigenData, power_family, sphere_data,
                           sphere_eigen_data, verify_flat_family, verify_general_family)
from .holomorphy import maximal_axis, span_complex_type
from .reduction import reduce_family
from .degree2 import (construct_eigenpair, data_from_json_dict,
                      data_to_json_dict, decompose_eigenpair, _matrix_json)
from .constructions import (NotHarmonicMorphism, RealMap, augment, defect_family, glue,
                            pair_components)
from . import catalog as catalog_mod

_CONSTANT_FRAME = VariableFrame(())


def _eigen_data(args) -> EigenData:
    "The --lambda/--mu pair, 0 where absent; a frame with no slots parses only constants."
    return EigenData(*(parse_poly("0" if x is None else x, _CONSTANT_FRAME).constant_value()
                       for x in (args.lam, args.mu)))


def _frame_label(frame) -> str:
    if frame.n and frame.r:
        return f"C^{frame.n} (+) R^{frame.r}"
    if frame.n:
        return f"C^{frame.n}"
    return f"R^{frame.r}"


def _header(source, detail="") -> str:
    "The first line of verify and analyze: the family, its frame and its member count."
    n = len(source.definitions)
    return (f"family {source.name} on {_frame_label(source.frame)} "
            f"({n} member{'s' if n != 1 else ''}{detail})")


def _jsonable(v):
    if isinstance(v, bool) or v is None or isinstance(v, (int, float, str)):
        return v
    if isinstance(v, GaussRational):
        return format_scalar(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v)


def _emit(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _write_family(source: FamilySource, args, payload, lines):
    """With --json, print the JSON object payload() with the family under "family";
    else print lines, then the family or where -o wrote it.  -o writes the family
    in both modes, and nothing is written before all is formatted."""
    data = {**payload(), "family": {
        "name": source.name,
        "frame": {"complex": list(source.frame.complex_names),
                  "real": list(source.frame.real_names)},
        "members": {name: format_poly(p) for name, p in source.definitions.items()},
    }} if args.json else None
    text = format_family(source) if args.output or not args.json else ""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        text = f"wrote {args.output}\n"
    if args.json:
        _emit(data)
    else:
        sys.stdout.write("".join(f"{line}\n" for line in lines) + text)


# -- verify -----------------------------------------------------------


def cmd_verify(args) -> int:
    source = load_family(args.path)
    fs = source.polys
    names = list(source.definitions)
    if args.lam is not None or args.mu is not None:
        report = verify_general_family(fs, _eigen_data(args))
    else:
        report = verify_flat_family(fs)
    payload = report.to_json_dict(name=source.name)
    payload["command"] = "verify"
    sphere = None
    if args.sphere:
        # the report alone decides: with a nonzero member it can verify
        # only for (lambda, mu) = (0, 0), where it is the flat report
        data = sphere_data(fs)
        sphere = {
            "sphere_dim": source.frame.m - 1,
            "lambda": format_scalar(data.lam),
            "mu": format_scalar(data.mu),
        }
        payload["sphere"] = sphere
    if args.json:
        _emit(payload)
        return 0 if report.verdict else 1
    print(_header(source, f", degree {'mixed' if report.degree is None else report.degree}"))
    print(f"eigenfamily: {'true' if report.verdict else 'false'}"
          + (f"  for lambda = {payload['lambda']}, mu = {payload['mu']}"
             if payload["lambda"] not in ("0", None) or payload["mu"] not in ("0", None)
             else ""))
    # the failing residuals, as the payload already formatted them
    for i, text in enumerate(payload["harmonic_residuals"]):
        if report.harmonic_residuals[i]:
            print(f"  laplacian({names[i]}) = {text}")
    for pair in payload["conformal_pairs"]:
        if report.conformal_pairs[pair["i"], pair["j"]]:
            print(f"  kappa({names[pair['i']]}, {names[pair['j']]}) = {pair['residual']}")
    if sphere is not None:
        print(f"restricted to S^{sphere['sphere_dim']}: "
              f"lambda = {sphere['lambda']}, mu = {sphere['mu']}")
    return 0 if report.verdict else 1


# -- analyze ----------------------------------------------------------


def cmd_analyze(args) -> int:
    source = load_family(args.path)
    fs = source.polys
    axis = maximal_axis(fs, tolerance=args.tolerance)
    W = axis.W
    uniform, witness = span_complex_type(W)
    payload = {
        "command": "analyze",
        "name": source.name,
        "m": source.frame.m,
        "members": len(fs),
        "gradient_span_dim": W.dim,
        "uniformly_complex_type": uniform,
        "witness": None,
        "axis": axis.to_json_dict(),
    }
    if witness is not None:
        witness.check()
        plane_dim = witness.plane_span.dim
        payload["witness"] = {
            "isotropic_pairs": witness.X.nrows,
            "plane_dim": plane_dim,
            "kernel_dim": witness.ambient - plane_dim,
        }
    if args.json:
        _emit(payload)
        return 0
    print(_header(source))
    print(f"gradient span dim: {W.dim} of {W.ambient}")
    print(f"uniformly complex type: {'true' if uniform else 'false'}")
    if witness is not None:
        print(f"  witness: {witness.X.nrows} isotropic pairs spanning dim "
              f"{plane_dim}, kernel dim {witness.ambient - plane_dim}")
    print(f"certified axis dim: {axis.certified_dim}")
    for b in axis.certified_axis.basis:
        print("  [" + ", ".join(str(q) for q in b) + "]")
    if axis.numeric_vectors:
        print(f"numeric extension [float]: {axis.numeric_dim} vectors, "
              f"residual {axis.numeric_residual:.3e}")
    else:
        print("numeric extension [float]: none")
    print(f"axis dim upper bound: {axis.theoretical_upper_bound}")
    return 0


# -- reduce -----------------------------------------------------------


def cmd_reduce(args) -> int:
    source = load_family(args.path)
    fs = source.polys
    before, after, reduced = reduce_family(fs, args.coord)
    out = FamilySource(f"{source.name}-reduced", reduced[0].frame, {},
                       dict(zip(source.definitions, reduced)), {})
    _write_family(out, args, lambda: {"command": "reduce", "coordinate": args.coord,
                                      "eigenfamily_before": before, "eigenfamily_after": after},
                  [f"eigenfamily before: {'true' if before else 'false'}, "
                   f"after: {'true' if after else 'false'}"])
    return 0 if before == after else 1


# -- deg2 -------------------------------------------------------------


def cmd_deg2_construct(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        raw = json.load(fh)
    t, pd, td = data_from_json_dict(raw)
    F1, F2 = construct_eigenpair(t, pd, td)
    verdict = verify_flat_family([F1, F2]).verdict
    out = FamilySource(f"deg2-n{t.n}k{t.k}d{t.delta}", F1.frame, {},
                       {"F1": F1, "F2": F2}, {})
    _write_family(out, args, lambda: {"command": "deg2-construct",
                                      "data": data_to_json_dict(t, pd, td), "verdict": verdict},
                  [f"verdict: {'true' if verdict else 'false'}"])
    return 0 if verdict else 1


def cmd_deg2_decompose(args) -> int:
    source = load_family(args.path)
    fs = source.polys
    if len(fs) != 2:
        raise ParseError("decomposition needs a family with exactly two members")
    try:
        dec = decompose_eigenpair(fs[0], fs[1])
    except ValueError as exc:
        print(f"decomposition failed: {exc}", file=sys.stderr)
        return 1
    t = dec.subspace_type
    payload = {
        "command": "deg2-decompose",
        "name": source.name,
        "exact": dec.exact,
        "data": data_to_json_dict(t, dec.poly_data, dec.twist_data),
    }
    if dec.exact:
        payload["isometry"] = _matrix_json(dec.isometry)
    else:
        rows, cols = dec.isometry.shape
        payload["isometry_numeric"] = {
            "rows": rows, "cols": cols,
            "entries": [[float(x) for x in row] for row in dec.isometry],
        }
    if args.json:
        _emit(payload)
        return 0
    print(f"subspace type: n = {t.n}, k = {t.k}, delta = {t.delta}")
    print(f"exact: {'true' if dec.exact else 'false (numeric tail, data re-rationalized)'}")
    print(f"P1 = {format_poly(dec.poly_data.P1)}")
    print(f"P2 = {format_poly(dec.poly_data.P2)}")
    for label, M in (("A", dec.poly_data.A), ("Y", dec.twist_data.Y),
                     ("C", dec.twist_data.C)):
        if M.nrows == 0 or M.ncols == 0:
            print(f"{label} = []")
            continue
        rows = [" ".join(format_scalar(M[i, j]) for j in range(M.ncols))
                for i in range(M.nrows)]
        print(f"{label} = [" + "; ".join(rows) + "]")
    print("v = (" + ", ".join(format_scalar(x) for x in dec.twist_data.v) + ")")
    if not dec.exact:
        print("isometry [float]:")
        for row in dec.isometry:
            print("  [" + ", ".join(f"{float(x):.6g}" for x in row) + "]")
    return 0


# -- construct --------------------------------------------------------


def _finish_constructed(name, frame, fam, args, extra=None, certified=False) -> int:
    defs = {f"F{i+1}": f for i, f in enumerate(fam)}
    out = FamilySource(name, frame, {}, defs, {})
    verdict = certified or verify_flat_family(fam).verdict
    extra = extra or {}
    _write_family(out, args, lambda: {"command": "construct", "subcommand": args.sub,
                                      "verdict": verdict, **extra},
                  [f"{key}: {_jsonable(value)}" for key, value in extra.items()]
                  + [f"verdict: {'true' if verdict else 'false'}"])
    return 0 if verdict else 1


def cmd_construct_pair(args) -> int:
    source = load_family(args.path)
    try:
        fam = pair_components(RealMap(source.frame, source.polys))
    except NotHarmonicMorphism:
        print("not a harmonic morphism: some component pair fails "
              "conformality or harmonicity", file=sys.stderr)
        return 1
    return _finish_constructed(f"paired-{source.name}", source.frame, fam, args)


def cmd_construct_defect(args) -> int:
    source = load_family(args.path)
    fs = source.polys
    if not 0 <= args.member < len(fs):
        raise ParseError(f"--member must be in 0..{len(fs) - 1}")
    fam = defect_family(fs[args.member])
    if not fam:
        print("every defect vanishes (the polynomial is of complex type); "
              "no family to emit", file=sys.stderr)
        return 1
    return _finish_constructed(f"defect-{source.name}", source.frame, fam, args)


def cmd_construct_glue(args) -> int:
    left = load_family(args.left)
    right = load_family(args.right)
    fam = glue(left.polys, right.polys)
    return _finish_constructed(f"glue-{left.name}-{right.name}",
                               fam[0].frame, fam, args)


def cmd_construct_augment(args) -> int:
    base = load_family(args.base)
    extra = load_family(args.extra)
    fam = augment(base.polys, extra.polys)
    return _finish_constructed(f"augmented-{base.name}", base.frame, fam, args)


def cmd_construct_power(args) -> int:
    source = load_family(args.path)
    fs = source.polys
    derived = args.lam is None and args.mu is None
    if derived:
        data, report = sphere_eigen_data(fs)
        if not report.verdict:
            print("family does not verify; cannot derive sphere eigen data",
                  file=sys.stderr)
            return 1
    else:
        data = _eigen_data(args)
        # the printed verdict, the flat test, speaks for flat or sphere data only
        try:
            sphere = sphere_data(fs)
            also = f" or the base's sphere data {sphere}"
        except ValueError:
            sphere, also = None, " (the base has no sphere data)"
        if data not in (FLAT_DATA, sphere):
            raise ValueError(f"--lambda/--mu {data} must be the flat data {FLAT_DATA}{also}")
    products, new_data = power_family(fs, args.d, data)
    extra = {"lambda": format_scalar(new_data.lam), "mu": format_scalar(new_data.mu)}
    if derived:
        extra["sphere_data_consistent"] = (sphere_data(products) == new_data)
        if not extra["sphere_data_consistent"]:
            print("transformed eigen data disagrees with the power family's "
                  "own sphere data", file=sys.stderr)
            return 1
    # Leibniz certificate: kappa is a derivation in each argument and
    # laplacian(fg) = f laplacian(g) + g laplacian(f) + 2 kappa(f, g), so every
    # product of a flat family is flat; products of a base that fails are bracketed
    return _finish_constructed(f"power{args.d}-{source.name}", products[0].frame, products,
                               args, extra, certified=derived or verify_flat_family(fs).verdict)


# -- catalog ----------------------------------------------------------


def cmd_catalog_list(args) -> int:
    rows = []
    for name in catalog_mod.list_entries():
        source = catalog_mod.load_entry(name)
        rows.append({
            "name": name,
            "frame": _frame_label(source.frame),
            "members": len(source.definitions),
            "params": list(source.params),
            "expects": {k: _jsonable(v) for k, v in source.expects.items()},
        })
    if args.json:
        _emit({"command": "catalog-list", "entries": rows})
        return 0
    width = max(len(r["name"]) for r in rows) if rows else 0
    for r in rows:
        plural = "s" if r["members"] != 1 else ""
        par = f", params {', '.join(r['params'])}" if r["params"] else ""
        print(f"{r['name']:{width}s}  {r['frame']:14s} {r['members']} member{plural}{par}; "
              f"expects {', '.join(r['expects']) or 'nothing'}")
    return 0


def cmd_catalog_run(args) -> int:
    results = catalog_mod.run_all()
    all_ok = True
    payload_entries = {}
    for name, outcomes in results.items():
        payload_entries[name] = [
            {"key": o.key, "expected": _jsonable(o.expected),
             "actual": _jsonable(o.actual), "ok": o.ok}
            for o in outcomes
        ]
        for o in outcomes:
            all_ok = all_ok and o.ok
            if not args.json:
                word = "pass" if o.ok else "FAIL"
                print(f"{word}  {name}: {o.key} expected {_jsonable(o.expected)}, "
                      f"got {_jsonable(o.actual)}")
    if args.json:
        _emit({"command": "catalog-run", "entries": payload_entries,
               "ok": all_ok})
    else:
        print(f"catalog: {'all expectations hold' if all_ok else 'FAILURES'}")
    return 0 if all_ok else 1


# -- wiring -----------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The eigenforge argument parser, built once per process (every
    main() call shares it; parse_args leaves it unchanged)."""
    ap = argparse.ArgumentParser(
        prog="eigenforge",
        description="Exact verification and construction of eigenfamilies "
                    "of polynomial harmonic morphisms.")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check the eigenfamily identities")
    v.add_argument("path", help=".efam family file")
    v.add_argument("--sphere", action="store_true",
                   help="also restrict to the unit sphere and print lambda, mu")
    v.add_argument("--lambda", dest="lam", metavar="VALUE",
                   help="check laplacian(f) = lambda f instead of lambda = 0")
    v.add_argument("--mu", metavar="VALUE",
                   help="check kappa(f,g) = mu f g instead of mu = 0")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("analyze", help="complex-type and axis report")
    a.add_argument("path")
    a.add_argument("--tolerance", type=float, default=1e-9,
                   help="residual bound for the numeric axis extension (finite, >= 0)")
    a.add_argument("--json", action="store_true")
    a.set_defaults(func=cmd_analyze)

    r = sub.add_parser("reduce", help="substitute 1 for a holomorphic coordinate")
    r.add_argument("path")
    r.add_argument("--coord", required=True, help="complex coordinate to reduce along")
    r.add_argument("-o", "--output", help="write the reduced family here")
    r.add_argument("--json", action="store_true")
    r.set_defaults(func=cmd_reduce)

    d = sub.add_parser("deg2", help="degree-2 classification data")
    dsub = d.add_subparsers(dest="sub", required=True)
    dc = dsub.add_parser("construct", help="eigenpair from a data JSON file")
    dc.add_argument("path", help="JSON file with type / poly / twist data")
    dc.add_argument("-o", "--output", help="write the pair as .efam here")
    dc.add_argument("--json", action="store_true")
    dc.set_defaults(func=cmd_deg2_construct)
    dd = dsub.add_parser("decompose", help="classifying data of a full eigenpair")
    dd.add_argument("path", help=".efam file with exactly two members")
    dd.add_argument("--json", action="store_true")
    dd.set_defaults(func=cmd_deg2_decompose)

    c = sub.add_parser("construct", help="build new families from old ones")
    csub = c.add_subparsers(dest="sub", required=True)
    cp = csub.add_parser("pair", help="pair the components of a real map")
    cp.add_argument("path", help=".efam file of real-valued components")
    cd = csub.add_parser("defect", help="spanning family of complex defects")
    cd.add_argument("path")
    cd.add_argument("--member", type=int, default=0,
                    help="index of the member to take defects of")
    cg = csub.add_parser("glue", help="join two families along a shared holomorphic block")
    cg.add_argument("left")
    cg.add_argument("right")
    ca = csub.add_parser("augment", help="adjoin holomorphic functions of an axis")
    ca.add_argument("base")
    ca.add_argument("extra", help=".efam file of holomorphic additions")
    cw = csub.add_parser("power", help="degree-d products with transformed eigen data")
    cw.add_argument("path")
    cw.add_argument("--d", type=int, required=True)
    cw.add_argument("--lambda", dest="lam", metavar="VALUE",
                    help="input eigenvalue (default: derived on the sphere)")
    cw.add_argument("--mu", metavar="VALUE")
    for leaf, fn in ((cp, cmd_construct_pair), (cd, cmd_construct_defect),
                     (cg, cmd_construct_glue), (ca, cmd_construct_augment),
                     (cw, cmd_construct_power)):
        leaf.add_argument("-o", "--output", help="write the result as .efam here")
        leaf.add_argument("--json", action="store_true")
        leaf.set_defaults(func=fn)

    k = sub.add_parser("catalog", help="built-in worked families")
    ksub = k.add_subparsers(dest="sub", required=True)
    kl = ksub.add_parser("list", help="entry names and expectations")
    kl.add_argument("--json", action="store_true")
    kl.set_defaults(func=cmd_catalog_list)
    kr = ksub.add_parser("run", help="re-derive every expectation")
    kr.add_argument("--json", action="store_true")
    kr.set_defaults(func=cmd_catalog_run)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:  # a ValueError, so caught first
        print(f"error: bad JSON input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # FrameMismatch is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: missing field {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
