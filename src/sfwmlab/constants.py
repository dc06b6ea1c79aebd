"""Physical constants (SI 2019 exact values) and package-wide defaults."""

C_VACUUM = 299792458.0        # speed of light, m/s
PLANCK_H = 6.62607015e-34     # Planck constant, J s
BOLTZMANN_K = 1.380649e-23    # Boltzmann constant, J/K

# Default RNG seed for simulations; always echoed in output metadata and
# overridable from the CLI.
DEFAULT_SEED = 1549315

# Bit generator of every stochastic operation (numpy's PCG64), recorded in
# histogram metadata.  Each simulator epoch's streams are keyed by
# SeedSequence(seed, spawn_key=(epoch, stream)), which is what keeps epochs
# independent; changing the generator changes every simulated histogram.
RNG_ALGORITHM = "pcg64"
