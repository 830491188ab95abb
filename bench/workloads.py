"""Seeded inputs, operations and known answers for the three workloads.

Each workload is a list of Op objects forming one *cycle*; the runner
repeats cycles until the run is long enough.  An op's ``run`` calls into
eigenforge and returns what ``observe`` needs; ``observe`` turns that into
a dict of facts which is compared key by key with ``expect``.  Expected
facts never come from the code under test: they come from the catalog's
hand-written ``expect`` lines (read here with a separate reader), from
closed forms, from theorems the library implements, or from the
generator that built the input.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from fractions import Fraction

from eigenforge import cli as ef_cli
from eigenforge import conformality as ef_conf
from eigenforge import constructions as ef_cons
from eigenforge import degree2 as ef_deg2
from eigenforge import holomorphy as ef_holo
from eigenforge import parser as ef_parser
from eigenforge.frames import VariableFrame
from eigenforge.linalg import Matrix, cayley_orthogonal
from eigenforge.poly import Poly
from eigenforge.scalars import GaussRational

WORKLOADS = ("cli", "rotated", "deg2")

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "cli_golden.json")


class Op:
    """One closed-loop operation: run, then observe and compare."""

    __slots__ = ("key", "run", "observe", "expect", "props")

    def __init__(self, key, run, observe, expect, props):
        self.key = key
        self.run = run
        self.observe = observe
        self.expect = expect
        self.props = props

    def execute(self):
        """Run the op and return (mismatches, output properties)."""
        facts, out_props = self.observe(self.run())
        bad = [f"{k}: expected {v!r}, got {facts.get(k)!r}"
               for k, v in self.expect.items() if facts.get(k) != v]
        return bad, out_props


# ---------------------------------------------------------------------
# coefficient sizes


def scalar_bits(c) -> int:
    "Largest numerator or denominator bit length of a GaussRational or Fraction."
    parts = (c.re, c.im) if isinstance(c, GaussRational) else (c,)
    return max(max(q.numerator.bit_length(), q.denominator.bit_length()) for q in parts)


def poly_bits(fs) -> int:
    return max((scalar_bits(c) for f in fs for c in f.terms.values()), default=0)


def family_props(fs):
    degs = sorted({f.degree() for f in fs if f != 0})
    return {"m": fs[0].frame.m, "degree": degs[-1] if degs else 0,
            "members": len(fs), "terms": sum(len(f.terms) for f in fs),
            "in_bits": poly_bits(fs)}


# ---------------------------------------------------------------------
# cli: the shipped catalog through eigenforge.cli.main


def catalog_dir(root):
    return os.path.join(root, "src", "eigenforge", "catalog")


def read_entry(path):
    """The hand-written facts of one .efam file, read without eigenforge:
    frame names, member definitions and expect lines."""
    facts = {"name": None, "complex": [], "real": [], "members": {}, "expects": {}}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rest = line.partition(" ")
            if head == "family":
                facts["name"] = rest.strip()
            elif head == "frame":
                for part in rest.split(";"):
                    kind, *names = part.split()
                    facts[kind].extend(names)
            elif head == "expect":
                key, _, value = rest.partition("=")
                facts["expects"][key.strip()] = value.strip()
            elif head != "param":
                name, _, expr = line.partition("=")
                facts["members"][name.strip()] = expr.strip()
    return facts


def conj_free_coordinates(facts):
    """Complex coordinates that no conj(...) argument mentions: the family
    is holomorphic in each of them."""
    inside = set()
    for expr in facts["members"].values():
        for start in (m.end() for m in re.finditer(r"conj\(", expr)):
            depth, i = 1, start
            while depth:
                depth += {"(": 1, ")": -1}.get(expr[i], 0)
                i += 1
            inside.update(re.findall(r"[A-Za-z_]\w*", expr[start:i - 1]))
    return [c for c in facts["complex"] if c not in inside]


# abb-r5 mixes degrees 3, 2 and 1 (its catalog comment says so): it has no
# sphere data, no power family and no reduction.
NON_HOMOGENEOUS = {"abb-r5"}


def sphere_data(d, m):
    "lambda = -d(d+m-1), mu = -d^2 on the unit sphere S^m of R^(m+1)."
    return -d * (d + m - 1), -d * d


def power_data(lam, mu, d):
    "Eigen data of the degree-d products: (d(lam+(d-1)mu), d^2 mu)."
    return d * (lam + (d - 1) * mu), d * d * mu


def _cli_run(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ef_cli.main(argv + ["--json"])
        return rc, out.getvalue()
    return run


def _cli_observe(key, golden, extract):
    def observe(result):
        rc, text = result
        facts = {"rc": rc,
                 "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()
                 == golden.get(key)}
        payload = json.loads(text) if text else None
        if payload is not None:
            facts.update(extract(payload))
        out = {"stdout_bytes": len(text.encode())}
        if payload is not None and payload.get("command") == "analyze":
            out["numeric_extension"] = payload["axis"]["numeric"]["dim"] > 0
        if payload is not None and payload.get("command") == "deg2-decompose":
            out["exact"] = payload["exact"]
        return facts, out
    return observe


def load_golden():
    if not os.path.isfile(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cli_ops(root, rng, tiny=False):
    """One cycle: every subcommand that applies to each catalog entry,
    plus one `catalog run`, in a seeded order."""
    golden = load_golden()
    specs = []  # (key, argv, expect, extract, entry facts)
    entry_keys = {}
    cdir = catalog_dir(root)
    names = sorted(fn[:-5] for fn in os.listdir(cdir) if fn.endswith(".efam"))
    for name in names:
        path = os.path.join(cdir, name + ".efam")
        e = read_entry(path)
        ex = e["expects"]
        entry_keys[name] = list(ex)
        m = 2 * len(e["complex"]) + len(e["real"])
        eig = ex["eigenfamily"] == "true"
        d = int(ex["degree"]) if "degree" in ex else None
        homogeneous = name not in NON_HOMOGENEOUS
        sphere = sphere_data(d, m - 1) if d else None
        rc_eig = 0 if eig else 1

        expect = {"rc": rc_eig, "verdict": eig, "m": m}
        if homogeneous and sphere:
            expect.update({"lambda": str(sphere[0]), "mu": str(sphere[1])})
        if "sphere_lambda" in ex:
            expect.update({"lambda": ex["sphere_lambda"], "mu": ex["sphere_mu"]})
        argv = ["verify", "--sphere", path] if homogeneous else ["verify", path]
        specs.append((f"{argv[0]}{' --sphere' if homogeneous else ''} {name}", argv, expect,
                      lambda p: {"verdict": p["verdict"], "m": p["m"],
                                 "lambda": p.get("sphere", {}).get("lambda"),
                                 "mu": p.get("sphere", {}).get("mu")}, e))

        expect = {"rc": 0, "m": m, "members": len(e["members"])}
        if "uniformly_complex_type" in ex:
            expect["uniform"] = ex["uniformly_complex_type"] == "true"
        floor = int(ex.get("certified_axis_at_least", 0))
        expect["axis_floor_met"] = True
        specs.append((f"analyze {name}", ["analyze", path], expect,
                      lambda p, floor=floor: {
                          "m": p["m"], "members": p["members"],
                          "uniform": p["uniformly_complex_type"],
                          "axis_floor_met": p["axis"]["certified"]["dim"] >= floor}, e))

        holo = conj_free_coordinates(e)
        if homogeneous and holo:
            # reduction along a holomorphic coordinate keeps the verdict
            specs.append((f"reduce --coord {holo[0]} {name}",
                          ["reduce", "--coord", holo[0], path],
                          {"rc": 0, "before": eig, "after": eig},
                          lambda p: {"before": p["eigenfamily_before"],
                                     "after": p["eigenfamily_after"]}, e))

        if len(e["members"]) == 2 and (d == 2 or not eig):
            # a full degree-2 eigenpair on R^m has type (n, k, delta) with
            # 2(n + k) + delta = m; a non-eigenfamily is refused with rc 1
            expect = {"rc": 0, "type_fits_m": True} if eig else {"rc": 1}
            specs.append((f"deg2 decompose {name}", ["deg2", "decompose", path], expect,
                          lambda p, m=m: {"type_fits_m": _type_fits(p["data"]["type"], m)},
                          e))

        if homogeneous and eig and sphere:
            for dd in (2, 3):
                if dd == 3 and len(e["members"]) > 4:
                    continue  # 120 degree-9 products: one op would be the whole cycle
                lam, mu = power_data(sphere[0], sphere[1], dd)
                specs.append((f"construct power --d {dd} {name}",
                              ["construct", "power", "--d", str(dd), path],
                              {"rc": 0, "verdict": True, "lambda": str(lam), "mu": str(mu),
                               "consistent": True},
                              lambda p: {"verdict": p["verdict"], "lambda": p["lambda"],
                                         "mu": p["mu"],
                                         "consistent": p["sphere_data_consistent"]}, e))

        if len(e["members"]) == 1 and ex.get("uniformly_complex_type") == "false":
            # the complex defects of a harmonic morphism not of complex type
            # form a nonempty eigenfamily
            specs.append((f"construct defect {name}", ["construct", "defect", path],
                          {"rc": 0, "verdict": True},
                          lambda p: {"verdict": p["verdict"]}, e))

    specs.append(("catalog run", ["catalog", "run"],
                  {"rc": 0, "ok": True, "keys": entry_keys, "all_pass": True},
                  lambda p: {"ok": p["ok"],
                             "keys": {n: [o["key"] for o in outs]
                                      for n, outs in p["entries"].items()},
                             "all_pass": all(o["ok"] for outs in p["entries"].values()
                                             for o in outs)}, None))

    if tiny:
        specs = [s for s in specs if s[0] in ("verify --sphere z1z2", "analyze pair-c4",
                                              "deg2 decompose pair-c4-variant")]
    rng.shuffle(specs)
    ops = []
    for key, argv, expect, extract, e in specs:
        expect = dict(expect, stdout_sha256=True)
        props = {}
        if e is not None:
            fs = ef_parser.load_family(argv[-1]).polys
            props = family_props(fs)
        ops.append(Op(key, _cli_run(argv), _cli_observe(key, golden, extract), expect, props))
    return ops


def _type_fits(t, m):
    n, k, delta = t["n"], t["k"], t["delta"]
    return n >= k >= 0 and k % 2 == 0 and delta in (0, 1) and 2 * (n + k) + delta == m


# ---------------------------------------------------------------------
# rotated: catalog families pulled back through rational Cayley rotations


# Entries whose dense full rotation costs about 0.1-0.6 s per op on one
# core.  Dense rotations give every op the same shape (all monomials of
# the degree appear) with 20-40 bit coefficients; the degree-3 and 4
# quartets and glued-pairs-c6 take 6-25 s per dense op and are left out.
ROTATED_ENTRIES = ("abb-r5", "inflated-cubic-r7", "pair-c4", "pair-c4-variant",
                   "quaternion-mult-c4", "twisted-pair-r9")


def cayley_rotation(rng, m):
    """Rational rotation (I - S)(I + S)^-1 with every entry of the
    antisymmetric S drawn from {+-1, +-1/2}."""
    S = [[GaussRational(0)] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            q = Fraction(rng.choice((-1, 1)), rng.choice((1, 2)))
            S[a][b] = GaussRational(q)
            S[b][a] = GaussRational(-q)
    return cayley_orthogonal(Matrix(S, ncols=m))


def _rotated_run(fs, Q, target):
    QT = Q.transpose()

    def run():
        moved = [ef_holo.apply_real_isometry(f, Q, target) for f in fs]
        verdict = ef_conf.verify_flat_family(moved).verdict
        return moved, verdict, ef_cons.congruent_under(moved, fs, QT)
    return run


def _rotated_observe(result):
    moved, verdict, congruent = result
    return {"eigenfamily": verdict, "congruent": congruent}, {"out_bits": poly_bits(moved)}


def rotated_ops(root, rng, cycles=12, tiny=False):
    """`cycles` cycles over ROTATED_ENTRIES, each op with a fresh rotation.
    A rotated eigenfamily stays one, a rotated non-eigenfamily stays
    negative, and the rotation carries the family back onto itself."""
    entries = []
    for name in ROTATED_ENTRIES[:2] if tiny else ROTATED_ENTRIES:
        path = os.path.join(catalog_dir(root), name + ".efam")
        facts = read_entry(path)
        fs = ef_parser.load_family(path).polys
        frame = fs[0].frame
        target = VariableFrame(tuple(f"x{j}" for j in range(frame.n)), frame.real_names)
        entries.append((name, fs, target, facts["expects"]["eigenfamily"] == "true"))
    ops = []
    for c in range(1 if tiny else cycles):
        for name, fs, target, eig in entries:
            Q = cayley_rotation(rng, fs[0].frame.m)
            ops.append(Op(f"rotate {name} #{c}", _rotated_run(fs, Q, target),
                          _rotated_observe, {"eigenfamily": eig, "congruent": True},
                          family_props(fs)))
    return ops


# ---------------------------------------------------------------------
# deg2: construct/decompose round trips and axis searches


# Every subspace type (n, k, delta) with n <= 4 and k in {0, 2}; one
# cycle visits each once, so the seed changes coefficients, not the mix.
DEG2_TYPES = tuple((n, k, delta) for n in range(1, 5) for k in (0, 2) if k <= n
                   for delta in ((0, 1) if k else (0,)))
AXIS_DIMS = (4, 6, 8, 10, 12)


def gauss(rng, nonzero=True):
    while True:
        c = GaussRational(Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                          Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        if c or not nonzero:
            return c


def deg2_data(rng, n, k, delta):
    """Valid classification data whose eigenpair is full: P1 has a
    diagonally dominant (so invertible) coefficient matrix, A has a
    dominant top k x k block (so full column rank), Y is invertible and
    v is nonzero exactly when delta = 1."""
    t = ef_deg2.SubspaceType(n, k, delta)
    zf = VariableFrame(tuple(f"z{i + 1}" for i in range(n)), ())
    z = [Poly.variable(zf, name) for name in zf.complex_names]
    P1 = Poly.zero(zf)
    P2 = Poly.zero(zf)
    for i in range(n):
        P1 = P1 + GaussRational(3 * n) * z[i] * z[i]
        P2 = P2 + gauss(rng) * z[i] * z[i]
        for j in range(i + 1, n):
            P1 = P1 + GaussRational(Fraction(rng.choice((-1, 1)), rng.randint(1, 3))) * z[i] * z[j]
            P2 = P2 + gauss(rng) * z[i] * z[j]
    A = Matrix([[GaussRational(3 * n) if (i == j) else gauss(rng, nonzero=False)
                 for j in range(k)] for i in range(n)], ncols=k)
    zero = GaussRational(0)
    if k:
        y, c = gauss(rng), gauss(rng)
        Y = Matrix([[zero, y], [-y, zero]], ncols=2)
        C = Matrix([[zero, c], [-c, zero]], ncols=2)
        v = (gauss(rng), gauss(rng)) if delta else (zero, zero)
    else:
        Y = Matrix([], ncols=0)
        C = Matrix([], ncols=0)
        v = ()
    return t, ef_deg2.PolynomialData(P1, P2, A), ef_deg2.TwistingData(Y, C, v)


def _round_trip_run(t, pd, td):
    def run():
        F1, F2 = ef_deg2.construct_eigenpair(t, pd, td)
        built = ef_conf.verify_flat_family([F1, F2]).verdict
        dec = ef_deg2.decompose_eigenpair(F1, F2)
        R1, R2 = dec.reconstruct()
        again = ef_conf.verify_flat_family([R1, R2]).verdict
        return built, dec, (R1, R2), again, (F1, F2)
    return run


def _round_trip_observe(result):
    built, dec, rec, again, fs = result
    return ({"verdict": built, "type": tuple(dec.subspace_type), "reconstructed": again},
            {"exact": dec.exact, "out_bits": poly_bits(rec), "terms": sum(len(f.terms) for f in fs)})


def anticommuting_forms(rng, m):
    """Two nonzero quadratic forms sum c_ab (w_a w_b^T + w_b w_a^T) over
    up to three rotated isotropic vectors w = Q(e_2j + i e_2j+1); every
    product of two such forms vanishes, so they form an eigenfamily."""
    Q = cayley_rotation(rng, m)
    i_unit = GaussRational(0, 1)
    ws = [[Q[x, 2 * j] + i_unit * Q[x, 2 * j + 1] for x in range(m)]
          for j in range(min(m // 2, 3))]
    k = len(ws)
    zero = GaussRational(0)
    forms = []
    for _ in range(2):
        # A = W C W^T with C symmetric, C_ab = c_ab off the diagonal, 2 c_aa on it
        C = [[zero] * k for _ in range(k)]
        for a in range(k):
            for b in range(a, k):
                c = gauss(rng)
                C[a][b] = C[b][a] = c + c if a == b else c
        U = [[sum((ws[a][x] * C[a][b] for a in range(k)), zero) for b in range(k)]
             for x in range(m)]
        rows = [[zero] * m for _ in range(m)]
        for x in range(m):
            for y in range(x, m):
                rows[x][y] = rows[y][x] = sum((U[x][b] * ws[b][y] for b in range(k)), zero)
        forms.append(Matrix(rows, ncols=m))
    return forms


def _axis_run(polys):
    def run():
        axis, degenerate = ef_deg2.find_axis_deg2(polys)
        return axis, degenerate, (not degenerate) and ef_holo.is_axis(polys, axis)
    return run


def _axis_observe(result):
    axis, degenerate, is_axis = result
    bits = max((scalar_bits(c) for v in axis.basis for c in v), default=0)
    return ({"degenerate": degenerate, "dim_at_least_2": axis.dim >= 2, "is_axis": is_axis},
            {"out_bits": bits})


def deg2_ops(root, rng, cycles=4, tiny=False):
    """`cycles` cycles, each one round trip per type in DEG2_TYPES and one
    axis search per m in AXIS_DIMS, interleaved in a seeded order."""
    frames = {m: VariableFrame((), tuple(f"s{j}" for j in range(m))) for m in AXIS_DIMS}
    ops = []
    for c in range(1 if tiny else cycles):
        cycle = []
        for t in (DEG2_TYPES[:2] if tiny else DEG2_TYPES):
            data = deg2_data(rng, *t)
            n, k, delta = t
            props = {"m": 2 * (n + k) + delta, "degree": 2, "members": 2,
                     "in_bits": max(poly_bits([data[1].P1, data[1].P2]),
                                    max((scalar_bits(x) for row in data[1].A.rows for x in row),
                                        default=0))}
            cycle.append(Op(f"round-trip {t} #{c}", _round_trip_run(*data), _round_trip_observe,
                            {"verdict": True, "type": t, "reconstructed": True}, props))
        for m in (AXIS_DIMS[:1] if tiny else AXIS_DIMS):
            polys = [ef_deg2.from_form(ef_deg2.Deg2Form(frames[m], A))
                     for A in anticommuting_forms(rng, m)]
            cycle.append(Op(f"axis m={m} #{c}", _axis_run(polys), _axis_observe,
                            {"degenerate": False, "dim_at_least_2": True, "is_axis": True},
                            family_props(polys)))
        rng.shuffle(cycle)
        ops.extend(cycle)
    return ops


def build(workload, root, seed, tiny=False):
    """(ops, cycle length) for one workload; the seed fixes every input."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        ops = cli_ops(root, rng, tiny)
        return ops, len(ops)
    if workload == "rotated":
        ops = rotated_ops(root, rng, tiny=tiny)
        return ops, len({op.key.split(" #")[0] for op in ops})
    if workload == "deg2":
        ops = deg2_ops(root, rng, tiny=tiny)
        return ops, len({op.key.split(" #")[0] for op in ops})
    raise ValueError(f"unknown workload {workload!r}")
