"""Small-SNR capacity asymptotes across memory regimes.

Quickly forgetting laws (phi < 1/2) have C/SNR^2 -> (2 phi + 1)^2 / 8 with
an interior optimal duty cycle; slowly forgetting laws (phi >= 1/2) reach
C/SNR^2 -> phi at full duty cycle.  Spectral lines push capacity into a
linear-in-SNR regime whose slope is the total jump mass.

Run:  python3 demos/03_capacity_asymptote.py
"""

import fadelab as fl


def main():
    print(f"{'model':24s} {'phi':>10s} {'regime':>20s} {'kappa':>10s} {'alpha*':>8s}")
    for name, model in fl.catalog().items():
        ca = fl.capacity_asymptote(model)
        print(f"{name:24s} {ca.phi:10.6f} {ca.regime:>20s} "
              f"{ca.kappa:10.6f} {ca.alpha_star:8.4f}")

    print()
    print("Spectral-line laws instead scale linearly with SNR:")
    for label, model in (
        ("constant fading", fl.line_plus_residual([(0.0, 1.0)])),
        ("0.3 line + white", fl.line_plus_residual([(0.0, 0.3)], fl.memoryless())),
    ):
        ca = fl.capacity_asymptote(model)
        print(f"  {label:18s} regime = {ca.regime}, C/SNR -> {ca.linear_slope}")

    print()
    print("The upper-bound coefficient (alpha - alpha^2)/2 + phi*alpha,")
    print("maximized over the duty cycle, lands exactly on kappa:")
    for phi in (0.0, 1 / 3, 0.5, 16 / 9):
        val, arg = fl.asymptotic_block_max(phi)
        kappa = (2 * phi + 1) ** 2 / 8 if phi < 0.5 else phi
        print(f"  phi = {phi:8.5f}: max {val:.6f} at alpha = {arg:.4f} "
              f"(kappa = {kappa:.6f})")


if __name__ == "__main__":
    main()
