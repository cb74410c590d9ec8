"""openmap: local-openness certificates for matrix-product maps,
constructive perturbation realization, and linear-network landscape
classification.

Nothing is re-exported here: the numerical core, internal to the
package, is imported from ``openmap.numcore``."""

__version__ = "0.1.0"
