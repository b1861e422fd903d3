"""Semiclassical spectra and time scales across the power-law family.

V(x) = V0 |x/a|^k interpolates from soft wells through the oscillator
(k = 2) to the box (k = infinity).  The revival time carries a factor
|(k+2)/(k-2)| that diverges at the oscillator, where packets are exactly
periodic; the half k = 1 well is the bouncing ball with T_rev -> 6 n tau.
"""

import math

from wellpacket import (PowerLawWell, classical_period_powerlaw,
                        collapse_time_powerlaw, fit_powerlaw_collapse,
                        gaussian_weights, powerlaw_autocorrelation,
                        revival_time_powerlaw, wkb_energy)


def main() -> int:
    n = 50
    print(f"full wells, state n = {n}:")
    print(f"{'k':>10s} {'E_n':>12s} {'tau':>12s} {'T_rev':>12s} {'T_rev/tau':>10s}")
    for k in (0.5, 1.0, 2.0, 4.0, 10.0, math.inf):
        well = PowerLawWell(k=k)
        E = wkb_energy(well, n)
        tau = classical_period_powerlaw(well, n)
        trev = revival_time_powerlaw(well, n)
        k_label = "infinity" if math.isinf(k) else f"{k:g}"
        if trev is None:
            print(f"{k_label:>10s} {E:12.4f} {tau:12.6f} {'periodic':>12s} {'-':>10s}")
        else:
            print(f"{k_label:>10s} {E:12.4f} {tau:12.6f} {trev:12.4f} "
                  f"{trev / tau:10.1f}")

    print("\nbouncer (half well, k = 1): T_rev = 6 (n + 3/4) tau exactly")
    for nb in (10, 100, 500):
        b = PowerLawWell(k=1.0, half=True)
        ratio = revival_time_powerlaw(b, nb) / (
            6.0 * nb * classical_period_powerlaw(b, nb))
        print(f"  n = {nb:4d}   T_rev / (6 n tau) = {ratio:.6f}")

    quartic = PowerLawWell(k=4.0)
    fit = fit_powerlaw_collapse(quartic, 200, 3.0)
    closed = collapse_time_powerlaw(quartic, 200, 3.0)
    print(f"\nquartic collapse, n0 = 200, dn = 3: fitted T_C = "
          f"{fit.T_C_estimate:.4f} vs closed form {closed:.4f} "
          f"(ratio {fit.T_C_estimate / closed:.4f}, {fit.points_used} points)")

    near = PowerLawWell(k=2.05)
    levels, w = gaussian_weights(400, 2.0, 8.0)
    tau_near = classical_period_powerlaw(near, 400)
    floor = min(abs(powerlaw_autocorrelation(near, levels, w, q * tau_near))
                for q in range(1, 201))
    print(f"near-oscillator k = 2.05, n0 = 400, dn = 2: "
          f"min |C(n tau)| over 200 periods = {floor:.5f} "
          f"(no visible collapse; diverging T_rev)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
