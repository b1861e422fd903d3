"""Position and momentum densities at the landmark times.

Prints a compact table of density features at t = 0, mid-flight, the
quarter and half revival, deep in the flat phase, and at the full
revival.  Pass --plot to also write density_snapshots.png (needs
matplotlib).
"""

import math
import sys

import numpy as np

from wellpacket import (MomentumGrid, PacketSpec, SpatialGrid, WellSystem,
                        build_gaussian_packet, compute_timescales,
                        expectation_series, momentum_wavefunction,
                        position_wavefunction, probability_density)


def main() -> int:
    sys0 = WellSystem()
    spec = PacketSpec(n0=400, x0=0.5, dx0=0.05)
    exp = build_gaussian_packet(spec, sys0)
    rep = compute_timescales(sys0, spec)
    tau, T = rep.tau, rep.T_rev

    snapshots = [
        ("t = 0", 0.0),
        ("t = 0.5 tau (mid-flight)", 0.5 * tau),
        ("t = T/4 (quarter revival)", T / 4.0),
        ("t = T/2 (mirror revival)", T / 2.0),
        ("t = 124 tau (flat phase)", 124.0 * tau),
        ("t = T (full revival)", T),
    ]

    xg = SpatialGrid.default(sys0, 2048)
    print(f"bounce period tau = {tau:.6g}, revival time T = {T:.6g}\n")
    print(f"{'snapshot':32s} {'peak at':>8s} {'peak':>8s} {'<x>':>8s} {'dx':>8s}")
    fields = []
    for label, t in snapshots:
        d = probability_density(position_wavefunction(exp, xg, t))
        x_mean, dx = (float(v[0]) for v in expectation_series(exp, ("x", "dx"), [t]))
        i = int(np.argmax(d))
        print(f"{label:32s} {xg.points[i]:8.4f} {d[i]:8.3f} {x_mean:8.4f} {dx:8.4f}")
        fields.append((label, d))
    print(f"\nuniform-density references: 1/L = {1.0:.3f}, "
          f"L/sqrt(12) = {1.0 / math.sqrt(12.0):.4f}")

    # momentum side: one peak at +p0 while moving, two at +-p0 in general
    pg = MomentumGrid.default(sys0, 400, 1.5, 1.0)
    p0 = 400.0 * math.pi
    for label, t in (("t = 0", 0.0), ("t = T/2", T / 2.0), ("t = 124 tau", 124.0 * tau)):
        f = probability_density(momentum_wavefunction(exp, pg, t))
        half = len(pg.points) // 2
        i_neg = int(np.argmax(f[:half]))
        i_pos = half + int(np.argmax(f[half:]))
        print(f"momentum peaks {label:12s}: p = {pg.points[i_neg]:+9.1f} "
              f"(h = {f[i_neg]:.2e})  and  p = {pg.points[i_pos]:+9.1f} "
              f"(h = {f[i_pos]:.2e})   [p0 = {p0:.1f}]")

    if "--plot" in sys.argv[1:]:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed; skipping the figure")
            return 0
        fig, axes = plt.subplots(3, 2, figsize=(9, 8), sharex=True)
        for ax, (label, d) in zip(axes.ravel(), fields):
            ax.plot(xg.points, d, lw=0.7)
            ax.set_title(label, fontsize=9)
            ax.set_xlim(0, 1)
        for ax in axes[-1]:
            ax.set_xlabel("x / L")
        fig.tight_layout()
        fig.savefig("density_snapshots.png", dpi=150)
        print("wrote density_snapshots.png")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
