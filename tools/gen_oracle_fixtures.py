#!/usr/bin/env python3
"""Generate the committed special-function oracle table.

Development-only: requires mpmath.  The library never imports this module;
the committed table (src/sagin_outage/data/specfun_oracle.txt) is the only
artifact.  Values carry 25 significant digits.

Notes on reference evaluation:
  * mpmath's gammainc is unreliable at large negative integer first argument,
    so incomplete-gamma differences use the two-argument integral form.
  * mpmath's meijerg Slater series degenerates when upper/lower parameters
    coincide at integers; those points are evaluated twice with +-1e-18
    parameter nudges at 60 digits and averaged, and the pair must agree.
"""

import numpy as np
import mpmath as mp

mp.mp.dps = 60

OUT = "src/sagin_outage/data/specfun_oracle.txt"

rng = np.random.default_rng(20240801)
lines = ["# kind params x value   (generated by tools/gen_oracle_fixtures.py)"]


def emit(kind, params, x, val):
    p_str = ",".join(f"{p:.17g}" for p in params) if params else "-"
    lines.append(f"{kind} {p_str} {x:.17g} {mp.nstr(val, 25)}")


def meijerg_ref(a_groups, b_groups, x):
    def ev(eps):
        e = mp.mpf(eps)
        aa = [[v + e * (3 + i) for i, v in enumerate(g)] for g in a_groups]
        bb = [[v + e * (7 + i) for i, v in enumerate(g)] for g in b_groups]
        return mp.meijerg(aa, bb, mp.mpf(x))
    try:
        v0 = ev(0)
        return v0
    except Exception:
        pass
    v1, v2 = ev("1e-18"), ev("-1e-18")
    if abs(v1 - v2) > 1e-12 * max(abs(v1), abs(v2)):
        raise RuntimeError(f"perturbed meijerg references disagree: {v1} vs {v2}")
    return (v1 + v2) / 2


# --- incomplete gamma differences -------------------------------------------
for _ in range(40):
    a = float(10 ** rng.uniform(0.2, 1.9))
    b = float(10 ** rng.uniform(-8, 3))
    c = b * float(10 ** rng.uniform(-2.5, 2.5))
    val = mp.gammainc(mp.mpf(a), mp.mpf(min(b, c)), mp.mpf(max(b, c)))
    if b > c:
        val = -val
    emit("delta_gamma", (a, b, c), 0.0, val)

# --- Bessel J1/J3 (beam gain), I0 (Rician pdf), K (half-integer orders) ------
for x in [0.05, 0.3, 1.0, 2.0, 3.5, 5.0, 5.5227, 7.7, 11.0, 16.0]:
    emit("bessel_j", (1.0,), x, mp.besselj(1, mp.mpf(x)))
    emit("bessel_j", (3.0,), x, mp.besselj(3, mp.mpf(x)))
for x in [0.01, 0.2, 1.0, 2.7, 6.0, 12.0, 25.0, 60.0, 140.0, 300.0]:
    emit("bessel_i0", (), x, mp.besseli(0, mp.mpf(x)))
for v in [0.5, 1.5, 2.5, -0.5, 1.0, 3.0, 7.5]:
    for x in [0.07, 0.9, 2.0, 9.0]:
        emit("bessel_k", (v,), x, mp.besselk(mp.mpf(v), mp.mpf(x)))

# --- retired Whittaker-W rows ------------------------------------------------
# The table once held Whittaker-W rows drawn at this point of the stream.  The
# library no longer evaluates W, but the same 36 (integers, uniform) draws are
# still taken, with the same arguments, so every G2123/G2113 row below keeps
# its committed parameters.
for _ in range(36):
    rng.integers(-40, 8)
    rng.uniform(-3.5, 3.0)

# --- identity-backed Meijer-G instances --------------------------------------
for x in [0.2, 0.8, 2.0, 9.0]:
    a1 = 1.0
    emit("G0110", (a1,), x, mp.power(mp.mpf(x), a1 - 1) * mp.exp(-1 / mp.mpf(x)))
for v in [0.5, 1.5, 3.0]:
    for x in [0.25, 1.7, 8.0]:
        emit("G2002", (v / 2, -v / 2), x,
             2 * mp.power(mp.mpf(x), 0) * mp.besselk(v, 2 * mp.sqrt(mp.mpf(x))))

# --- Meijer-G instances of the series, family b3 = a1 - 1 --------------------
n_2123 = 0
while n_2123 < 45:
    n = int(rng.integers(0, 4)); k1 = int(rng.integers(0, 6)); k2 = int(rng.integers(0, 40))
    nu = float(rng.choice([2.0, 2.7, 3.0])); q = float(rng.choice([2.0, 3.0]))
    s1 = 1 + k1 + k2 - n
    x = float(10 ** rng.uniform(-4, 3))
    params = (1 - n - q / nu, s1 + 1.0, float(s1), 0.0, -n - q / nu)
    try:
        val = meijerg_ref([[params[0]], [params[1]]],
                          [[params[2], params[3]], [params[4]]], x)
    except RuntimeError:
        continue
    emit("G2123", params, x, val)
    n_2123 += 1

n_2113 = 0
while n_2113 < 45:
    n = int(rng.integers(0, 8)); k1 = int(rng.integers(0, 6)); k2 = int(rng.integers(0, 25))
    nu = float(rng.choice([2.0, 2.7, 3.0])); q = float(rng.choice([2.0, 3.0]))
    s2 = (n + k1 + 2 * k2 + 1) / 2.0
    s3 = (k1 - n + 1) / 2.0
    x = float(10 ** rng.uniform(-4, 4))
    params = (1 - s2 - q / nu, s3, -s3, -s2 - q / nu)
    try:
        val = meijerg_ref([[params[0]], []],
                          [[params[1], params[2]], [params[3]]], x)
    except RuntimeError:
        continue
    emit("G2113", params, x, val)
    n_2113 += 1

with open(OUT, "w") as fh:
    fh.write("\n".join(lines) + "\n")
print(f"wrote {len(lines) - 1} fixtures to {OUT}")
