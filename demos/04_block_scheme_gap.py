"""On-off block signaling vs IID inputs at second order.

The block scheme holds one on-off amplitude constant across b symbols and
flips IID signs inside the block.  Its per-symbol coefficient of SNR^2,
(alpha - alpha^2 + alpha S(b)/b)/2, climbs to the converse value as b
grows; IID on-off inputs replace alpha S(b)/b with alpha^2 S(b)/b and fall
short whenever 0 < phi < 1/2.

Run:  python3 demos/04_block_scheme_gap.py
"""

import fadelab as fl


def main():
    model = fl.ar1(0.5)
    phi = fl.phi_integral(model)
    alpha = fl.alpha_star_of_phi(phi)
    print(f"Model ar1(0.5): phi = {phi:.6f}, optimal duty cycle = {alpha:.4f}")
    print()
    print(f"{'b':>6s} {'S(b)/b':>10s} {'block coeff':>12s} {'iid coeff':>12s} {'upper bound':>12s}")
    ub = fl.upper_bound_g(phi, alpha)
    for b in (1, 2, 4, 8, 16, 64, 256, 1024):
        c = fl.scheme_coefficients(model, b, alpha)
        print(f"{b:6d} {c.s_of_b / b:10.6f} {c.block_coeff:12.8f} "
              f"{c.iid_coeff:12.8f} {ub:12.8f}")

    print()
    print("Best-over-duty-cycle at large blocks:")
    blk, blk_a = fl.asymptotic_block_max(phi)
    iid, iid_a = fl.asymptotic_iid_max(phi)
    print(f"  block scheme: {blk:.6f} at alpha = {blk_a:.4f}  (= 25/72)")
    print(f"  iid inputs  : {iid:.6f} at alpha = {iid_a:.4f}  (= 1/3)")
    print(f"  gap         : {blk - iid:.6f}  (= 1/72, the cost of independence)")


if __name__ == "__main__":
    main()
