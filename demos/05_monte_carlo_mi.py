"""Seeded Monte Carlo mutual information against the exact coefficient.

Draws channel blocks (x, y), averages log p(y|x) - log p(y) with the exact
finite mixture for p(y), and sets each small SNR's estimate / SNR^2 beside
the exact SNR^2 coefficient, which it approaches as the SNR falls.
Everything is reproducible from the one master seed.

Run:  python3 demos/05_monte_carlo_mi.py          (~1 second)
"""

import fadelab as fl

SEED = 20260810


def main():
    model = fl.ar1(0.5)
    scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=5 / 6, block_length=4)
    exact = 4 * fl.scheme_coefficients(model, 4, 5 / 6).block_coeff
    print("Model ar1(0.5), block length 4, duty cycle 5/6, peak amplitude 1")
    print(f"Exact per-block coefficient of SNR^2: {exact:.6f}")
    print()

    print(f"{'SNR':>6s} {'estimate':>12s} {'std error':>11s} {'est/SNR^2':>11s} "
          f"{'gap to exact':>13s}")
    snrs = (0.1, 0.15, 0.25)
    for snr, est in zip(snrs, fl.mi_monte_carlo_many(scheme, model, [1.0 / s for s in snrs],
                                                     500_000, SEED)):
        ratio = est.estimate / snr ** 2
        print(f"{snr:6.2f} {est.estimate:12.6f} {est.std_error:11.2e} "
              f"{ratio:11.5f} {(ratio - exact) / exact:13.2%}")

    print()
    print("Per-symbol rate stays below the converse coefficient:")
    phi = fl.phi_integral(model)
    print(f"  exact/b = {exact / 4:.6f} <= "
          f"upper bound {fl.upper_bound_g(phi, 5 / 6):.6f}")

    print()
    print("Degenerate checks: constant-modulus single symbols carry nothing,")
    silent = fl.mi_monte_carlo(
        fl.BlockScheme(amplitude=1.0, duty_cycle=1.0, block_length=1),
        fl.memoryless(), 1.0, 10_000, SEED)
    print(f"  memoryless, b=1, alpha=1: estimate = {silent.estimate}")
    print("and a silent transmitter carries nothing either:")
    off = fl.mi_monte_carlo(
        fl.BlockScheme(amplitude=1.0, duty_cycle=0.0, block_length=2),
        fl.memoryless(), 1.0, 10_000, SEED)
    print(f"  alpha=0: estimate = {off.estimate}")


if __name__ == "__main__":
    main()
