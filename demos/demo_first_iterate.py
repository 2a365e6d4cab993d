"""Evaluate the first Picard iterate of the two-block datum and compare the
FFT-convolution pipeline against the direct lattice-sum oracle.

The datum is R on the frequency blocks around 2N and 3N.  Its quintic first
iterate piles up mass near frequency zero: that low-frequency bulge is the
engine of the norm-inflation mechanism.
"""

import numpy as np

from gdnls.estimates import generation_setup
from gdnls.picard import first_iterate_quintic_exact, xi_generation
from gdnls.spectrum import ParameterSet, sobolev_norm

def main():
    params = ParameterSet(s=-1.0, N=16.0, A=4.0, R=1.0, T=1e-3)
    grid, tg, phi = generation_setup(params, 1, params.T, points_per_block=8, time_steps=None)

    quintic = xi_generation(0, 1, phi, tg).final
    oracle = first_iterate_quintic_exact(phi, params.T)
    err = np.linalg.norm(quintic.values - oracle.values) / np.linalg.norm(oracle.values)
    print(f"quintic term vs direct-sum oracle: relative L2 error {err:.2e}")

    cubic = xi_generation(1, 0, phi, tg).final
    print(f"cubic  term H^s norm: {sobolev_norm(cubic, params.s):.3e}")
    print(f"quintic term H^s norm: {sobolev_norm(quintic, params.s):.3e}")
    print("(the quintic term dominates whenever R^2 A^2 >> N)")

    mag = np.abs(quintic.values)
    near_zero = np.abs(grid.xis) <= params.A
    print(f"peak |Xi_(0,1)| near xi = 0: {mag[near_zero].max():.3e}")
    print(f"peak |Xi_(0,1)| overall:     {mag.max():.3e} at xi = {grid.xis[mag.argmax()]:.1f}")


if __name__ == "__main__":
    main()
