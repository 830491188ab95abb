"""Shared oracles, independent of the code paths they check:
finite-difference derivatives on float evaluations, and a reference
Q(i) scalar built on Fraction pairs."""

from fractions import Fraction

from eigenforge.scalars import scalar


def axis_shift(point, frame, axis, delta):
    "Shift one real axis of an evaluation point by delta."
    q = dict(point)
    label = frame.axis_labels()[axis]
    if label.startswith("Re("):
        q[label[3:-1]] = q[label[3:-1]] + delta
    elif label.startswith("Im("):
        q[label[3:-1]] = q[label[3:-1]] + 1j * delta
    else:
        q[label] = q[label] + delta
    return q


def fd_gradient(f, point, h=1e-6):
    "Central-difference real gradient, one complex number per real axis."
    frame = f.frame
    out = []
    for axis in range(frame.m):
        hi = f.evaluate_float(axis_shift(point, frame, axis, h))
        lo = f.evaluate_float(axis_shift(point, frame, axis, -h))
        out.append((hi - lo) / (2 * h))
    return out


def fd_kappa(f, g, point, h=1e-6):
    "Bilinear dot product of finite-difference gradients."
    gf = fd_gradient(f, point, h)
    gg = fd_gradient(g, point, h)
    return sum(a * b for a, b in zip(gf, gg))


def fd_laplacian(f, point, h=1e-3):
    "Sum of second central differences over the real axes."
    frame = f.frame
    mid = f.evaluate_float(point)
    total = 0j
    for axis in range(frame.m):
        hi = f.evaluate_float(axis_shift(point, frame, axis, h))
        lo = f.evaluate_float(axis_shift(point, frame, axis, -h))
        total += (hi - 2 * mid + lo) / (h * h)
    return total


def rational_point(rng, frame, span=3, den=7):
    "Random rational evaluation point, returned as floats."
    pt = {}
    for name in frame.complex_names:
        pt[name] = complex(Fraction(rng.randint(-span, span), rng.randint(1, den)),
                           Fraction(rng.randint(-span, span), rng.randint(1, den)))
    for name in frame.real_names:
        pt[name] = float(Fraction(rng.randint(-span, span), rng.randint(1, den)))
    return pt


# -- reference scalar ----------------------------------------------------
#
# The straightforward Fraction-pair implementation of Q(i).  The integer
# kernel in eigenforge.scalars must agree with it on every operation.


class RefGauss:
    "a + b*i with a, b Fractions; every operation reduces each part."

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def coerce(x):
        return x if isinstance(x, RefGauss) else RefGauss(x)

    def __eq__(self, other):
        other = RefGauss.coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __add__(self, other):
        other = RefGauss.coerce(other)
        return RefGauss(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return RefGauss(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-RefGauss.coerce(other))

    def __mul__(self, other):
        other = RefGauss.coerce(other)
        return RefGauss(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        other = RefGauss.coerce(other)
        n = other.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return RefGauss((self.re * other.re + self.im * other.im) / n,
                        (self.im * other.re - self.re * other.im) / n)

    def __pow__(self, n):
        out = RefGauss(1)
        for _ in range(n):
            out = out * self
        return out

    def conjugate(self):
        return RefGauss(self.re, -self.im)

    def norm2(self):
        return self.re * self.re + self.im * self.im


def ref_sum_of_products(u, v, conjugate_first=False):
    "Term-by-term sum_k u_k v_k (conj(u_k) v_k) in RefGauss arithmetic."
    total = RefGauss(0)
    for a, b in zip(u, v):
        total = total + (a.conjugate() if conjugate_first else a) * b
    return total


def ref_format(c):
    "Canonical text of a scalar from its Fraction parts (p/q, i, p/q+r/s*i)."
    def frac(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    re, im = Fraction(c.re), Fraction(c.im)
    if im == 0:
        return frac(re)
    imtxt = "i" if im == 1 else "-i" if im == -1 else f"{frac(im)}*i"
    if re == 0:
        return imtxt
    return f"{frac(re)}{'' if imtxt.startswith('-') else '+'}{imtxt}"
