#!/usr/bin/env python3
"""Generates src/common/detmath_tables.hpp, the fixed tables and polynomial
coefficients of the library's own pow/exp/log/sin/cos (src/common/detmath.*).

Every value is computed with Python's decimal module at 60 significant digits
and rounded once to the nearest double (float(Decimal) rounds correctly), so
the output depends on nothing but this script.  Run it only to change the
algorithm; the committed header is what every build compiles, and any change
to it moves the pinned digests.

    python3 scripts/gen_detmath_tables.py > src/common/detmath_tables.hpp

The log table is the 128-entry one of glibc's pow (non-FMA branch): for the
i-th of 128 subintervals of z in [0x1.69555p-1, 0x1.69555p0), split in the
bit pattern of z,
  * 1/c is the interval centre's reciprocal rounded to 8 bits (j/128 or
    j/256), so zhi * invc - 1 is exact for the 21-bit zhi;
  * log c is rounded to a multiple of 2^-42, so k * ln2hi + logc is exact for
    every normal exponent k (ln2hi is a multiple of 2^-42 too);
  * logctail carries log c - logc.
The polynomials are interpolants at Chebyshev nodes on the interval each
kernel evaluates them on, which is within a small factor of minimax.
"""

from decimal import Decimal as D, getcontext
import struct

getcontext().prec = 60

N = 128
LOG_OFF = 0x3FE6955500000000


def bits_to_double(b):
    return struct.unpack("<d", struct.pack("<Q", b))[0]


def hexf(v):
    return float(v).hex()


def compute_pi():
    """pi by the decimal module documentation's series (to the context's precision)."""
    getcontext().prec += 2
    three = D(3)
    lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    getcontext().prec -= 2
    return +s


def dsin(x):
    getcontext().prec += 2
    i, lasts, s, fact, num, sign = 1, 0, x, 1, x, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    getcontext().prec -= 2
    return +s


def dcos(x):
    getcontext().prec += 2
    i, lasts, s, fact, num, sign = 0, 0, D(1), 1, D(1), 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    getcontext().prec -= 2
    return +s


def round_to_multiple(v, quantum):
    return (v / quantum).to_integral_value() * quantum


def round_to_bits(v, bits):
    """v rounded to `bits` significant bits (v > 0)."""
    e = 0
    a = abs(v)
    while a >= 2:
        a /= 2
        e += 1
    while a < 1:
        a *= 2
        e -= 1
    return round_to_multiple(v, D(2) ** (e - bits + 1))


def chebyshev_fit(f, lo, hi, degree):
    """Monomial coefficients of the polynomial interpolating f at the
    degree + 1 Chebyshev nodes of [lo, hi]."""
    pi = compute_pi()
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    # Fit in u = t / scale so the Vandermonde system stays well scaled.
    scale = max(abs(lo), abs(hi))
    nodes = [mid + half * dcos((2 * j + 1) * pi / (2 * (degree + 1))) for j in range(degree + 1)]
    rows = [[(t / scale) ** k for k in range(degree + 1)] + [f(t)] for t in nodes]
    n = degree + 1
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(n):
            if r != col:
                m = rows[r][col] / rows[col][col]
                rows[r] = [a - m * b for a, b in zip(rows[r], rows[col])]
    return [rows[k][n] / rows[k][k] / scale ** k for k in range(n)]


def emit_array(name, values, comment):
    out = [f"/// {comment}", f"inline constexpr double {name}[{len(values)}] = {{"]
    for v in values:
        out.append(f"    {hexf(v)},")
    out.append("};")
    return "\n".join(out)


def emit_scalar(name, value, comment):
    return f"/// {comment}\ninline constexpr double {name} = {hexf(value)};"


def main():
    ln2 = D(2).ln()
    pi = compute_pi()

    # --- log: 128-entry table, shared by pow and log -------------------------
    invc, logc, logctail = [], [], []
    max_r = D(0)
    for i in range(N):
        x_lo = D(bits_to_double(LOG_OFF + (i << 45)))
        x_hi = D(bits_to_double(LOG_OFF + ((i + 1) << 45)))
        centre = (x_lo + x_hi) / 2
        if centre < 1:
            ic = (N / centre).to_integral_value() / N
        else:
            ic = (2 * N / centre).to_integral_value() / (2 * N)
        lc = -ic.ln()
        lc_hi = round_to_multiple(lc, D(2) ** -42)
        invc.append(ic)
        logc.append(lc_hi)
        logctail.append(lc - lc_hi)
        max_r = max(max_r, abs(x_lo * ic - 1), abs(x_hi * ic - 1))
    ln2hi = round_to_multiple(ln2, D(2) ** -42)
    ln2lo = ln2 - ln2hi

    def log_poly_target(r):
        return ((1 + r).ln() - r + r * r / 2) / (r * r * r)

    r_max = max_r * D("1.001")
    c = chebyshev_fit(log_poly_target, -r_max, r_max, 5)
    # The kernel evaluates ar3 * (A1 + r A2 + ar2 (A3 + r A4 + ar2 (A5 + r A6)))
    # with ar = -0.5 r, so each coefficient carries that scaling.
    log_poly = [c[0] * -2, c[1] * -2, c[2] * 4, c[3] * 4, c[4] * -8, c[5] * -8]

    # --- exp: 2^(j/128) table --------------------------------------------------
    exp_head, exp_tail = [], []
    for j in range(N):
        v = (D(j) / N * ln2).exp()
        h = D(float(v))
        exp_head.append(h)
        exp_tail.append((v - h) / h)
    ln2_n = ln2 / N
    # 35 significant bits: kd * hi is exact for |kd| < 2^18.
    ln2hi_n = round_to_multiple(ln2_n, D(2) ** -42)
    ln2lo_n = ln2_n - ln2hi_n
    # r also carries the pow tail elo, below 2^-25 * |y log x| <= 2^-15.
    e_max = ln2_n / 2 + D(2) ** -15

    def exp_poly_target(r):
        return (r.exp() - 1 - r) / (r * r)

    exp_poly = chebyshev_fit(exp_poly_target, -e_max, e_max, 3)

    # --- sin/cos: Cody-Waite pi/2 and kernels on |r| <= pi/4 -----------------
    pio2 = pi / 2
    pio2_1 = round_to_bits(pio2, 33)
    rem1 = pio2 - pio2_1
    pio2_2 = round_to_bits(rem1, 33)
    rem2 = rem1 - pio2_2
    pio2_3 = round_to_bits(rem2, 33)
    rem3 = rem2 - pio2_3
    z_max = (pi / 4) ** 2 * D("1.001")

    def sin_poly_target(z):
        s = z.sqrt()
        return (dsin(s) - s) / (z * s)

    def cos_poly_target(z):
        return (dcos(z.sqrt()) - 1 + z / 2) / (z * z)

    sin_poly = chebyshev_fit(sin_poly_target, D(0), z_max, 5)
    cos_poly = chebyshev_fit(cos_poly_target, D(0), z_max, 5)

    parts = [
        "// Tables and coefficients of the library's own pow/exp/log/sin/cos",
        "// (common/detmath.hpp).  Generated by scripts/gen_detmath_tables.py with",
        "// Python's decimal module at 60 digits; do not edit by hand.  Changing any",
        "// value moves the pinned digests (tests/integration/determinism_test.cpp).",
        "#pragma once",
        "",
        "namespace aropuf::detmath::detail {",
        "",
        "inline constexpr int kTableBits = 7;",
        "inline constexpr int kTableSize = 1 << kTableBits;",
        "/// Bit pattern the log subintervals start at: z in [0x1.69555p-1, 0x1.69555p0).",
        f"inline constexpr unsigned long long kLogOffset = 0x{LOG_OFF:016x}ULL;",
        "",
        emit_array("kLogInvc", invc, "1/c for each log subinterval (8 significant bits)."),
        "",
        emit_array("kLogC", logc, "log(c) rounded to a multiple of 2^-42."),
        "",
        emit_array("kLogCTail", logctail, "log(c) - kLogC[i]."),
        "",
        emit_scalar("kLn2Hi", ln2hi, "ln 2 rounded to a multiple of 2^-42."),
        emit_scalar("kLn2Lo", ln2lo, "ln 2 - kLn2Hi."),
        "",
        emit_array(
            "kLogPoly",
            log_poly,
            f"log1p(r) - r + r^2/2 on |r| <= {hexf(r_max)}, scaled for the kernel's ar = -r/2.",
        ),
        "",
        emit_array("kExpHead", exp_head, "2^(j/128) rounded to double."),
        "",
        emit_array("kExpTail", exp_tail, "2^(j/128) / kExpHead[j] - 1."),
        "",
        emit_scalar("kInvLn2N", D(N) / ln2, "128 / ln 2."),
        emit_scalar("kLn2HiN", ln2hi_n, "ln 2 / 128 to 35 significant bits."),
        emit_scalar("kLn2LoN", ln2lo_n, "ln 2 / 128 - kLn2HiN."),
        "",
        emit_array(
            "kExpPoly",
            exp_poly,
            f"(exp(r) - 1 - r) / r^2 on |r| <= {hexf(e_max)}, in powers of r.",
        ),
        "",
        emit_scalar("kInvPio2", 2 / pi, "2 / pi."),
        emit_scalar("kPio2_1", pio2_1, "pi/2 to 33 significant bits."),
        emit_scalar("kPio2_1t", rem1, "pi/2 - kPio2_1."),
        emit_scalar("kPio2_2", pio2_2, "The next 33 bits of pi/2."),
        emit_scalar("kPio2_2t", rem2, "pi/2 - kPio2_1 - kPio2_2."),
        emit_scalar("kPio2_3", pio2_3, "The next 33 bits of pi/2."),
        emit_scalar("kPio2_3t", rem3, "pi/2 - kPio2_1 - kPio2_2 - kPio2_3."),
        "",
        emit_array(
            "kSinPoly",
            sin_poly,
            f"(sin(x) - x) / x^3 in powers of z = x^2, z <= {hexf(z_max)}.",
        ),
        "",
        emit_array(
            "kCosPoly",
            cos_poly,
            f"(cos(x) - 1 + x^2/2) / x^4 in powers of z = x^2, z <= {hexf(z_max)}.",
        ),
        "",
        "}  // namespace aropuf::detmath::detail",
        "",
    ]
    print("\n".join(parts), end="")


if __name__ == "__main__":
    main()
