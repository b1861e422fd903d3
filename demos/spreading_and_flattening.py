"""Width growth: free-particle envelope at first, saturation later.

Early on the packet spreads exactly like a free Gaussian; after enough
bounces the position density flattens out and Delta-x saturates near the
uniform value L/sqrt(12).  The saturation time scales linearly with the
initial width.  Pass --plot to write spreading_and_flattening.png.
"""

import math
import sys

import numpy as np

from wellpacket import (PacketSpec, WellSystem, build_gaussian_packet,
                        compute_timescales, detect_flattening, flat_reference,
                        sample_series, spreading_envelope, uncertainty_series)


def main() -> int:
    sys0 = WellSystem()
    spec = PacketSpec(n0=400, x0=0.5, dx0=0.05)
    exp = build_gaussian_packet(spec, sys0)
    rep = compute_timescales(sys0, spec)
    tau = rep.tau

    print("early growth, sampled mid-flight (j tau / 2):")
    print(f"{'t/tau':>6s} {'dx':>10s} {'envelope':>10s} {'rel dev':>10s}")
    ts = np.arange(1, 19) * tau / 2.0
    dx = uncertainty_series(exp, "x", ts)
    env = spreading_envelope(spec.dx0, rep.t0, ts)
    for t, d, e in zip(ts, dx, env):
        print(f"{t / tau:6.1f} {d:10.6f} {e:10.6f} {(d - e) / e:+10.2e}")

    flat = flat_reference(sys0)[2]
    print(f"\nsaturation value L/sqrt(12) = {flat:.6f}")
    print(f"{'dx0':>6s} {'t* (detected)':>14s} {'t*/tau':>8s} {'t*/t0':>8s}")
    widths = (0.025, 0.05, 0.10)
    t_stars = []
    curves = {}
    for dx0 in widths:
        spec_w = PacketSpec(n0=400, x0=0.5, dx0=dx0)
        exp_w = build_gaussian_packet(spec_w, sys0)
        rep_w = compute_timescales(sys0, spec_w)
        times = np.arange(0.0, 150.0 * tau, 0.25 * tau)
        series = sample_series(exp_w, "dx", times)
        t_star = detect_flattening(series, sys0, epsilon=0.05, hold=10)
        t_stars.append(t_star)
        curves[dx0] = series
        print(f"{dx0:6.3f} {t_star:14.6f} {t_star / tau:8.1f} {t_star / rep_w.t0:8.2f}")

    slope = float(np.polyfit(np.log(widths), np.log(t_stars), 1)[0])
    print(f"\nlog-log slope of t* against dx0: {slope:.3f} (linear scaling ~ 1)")

    if "--plot" in sys.argv[1:]:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed; skipping the figure")
            return 0
        fig, ax = plt.subplots(figsize=(7, 4))
        for dx0, series in curves.items():
            ax.plot(series.times / tau, series.values, lw=0.8,
                    label=f"dx0 = {dx0:g}")
        ax.axhline(flat, color="k", ls=":", lw=0.8)
        ax.set_xlabel("t / tau")
        ax.set_ylabel("Delta x")
        ax.legend()
        fig.tight_layout()
        fig.savefig("spreading_and_flattening.png", dpi=150)
        print("wrote spreading_and_flattening.png")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
